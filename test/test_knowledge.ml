(* Tests for the knowledge base: construction, queries, the leave-one-out
   protocol, and exact save/load round-trips of the standard format. *)

module Kb = Knowledge.Kb
module Pass = Passes.Pass

let mk_char prog arch =
  {
    Kb.prog;
    arch;
    o0_cycles = 1000;
    features = [ ("branch_density", 0.125); ("fp_frac", 0.5) ];
    counters = [ ("L1_TCM", 0.01); ("BR_MSP", 0.002) ];
  }

let mk_exp ?(arch = "amd-like") prog seq cycles =
  { Kb.eprog = prog; earch = arch; seq; cycles; code_size = 100 }

let sample_kb () =
  let kb = Kb.create () in
  Kb.add_characterization kb (mk_char "p1" "amd-like");
  Kb.add_characterization kb (mk_char "p2" "amd-like");
  Kb.add_experiment kb (mk_exp "p1" [ Pass.Const_prop; Pass.Unroll4 ] 900);
  Kb.add_experiment kb (mk_exp "p1" [ Pass.Dce ] 950);
  Kb.add_experiment kb (mk_exp "p1" [] 1000);
  Kb.add_experiment kb (mk_exp "p2" [ Pass.Cse ] 800);
  Kb.add_experiment kb (mk_exp "p2" Pass.ofast 700);
  kb

let test_best () =
  let kb = sample_kb () in
  (match Kb.best kb ~prog:"p1" ~arch:"amd-like" with
   | Some e -> Alcotest.(check int) "p1 best" 900 e.Kb.cycles
   | None -> Alcotest.fail "no best for p1");
  (match Kb.best kb ~prog:"p2" ~arch:"amd-like" with
   | Some e -> Alcotest.(check int) "p2 best" 700 e.Kb.cycles
   | None -> Alcotest.fail "no best for p2");
  Alcotest.(check bool) "missing program" true
    (Kb.best kb ~prog:"nope" ~arch:"amd-like" = None)

let test_good_experiments () =
  let kb = sample_kb () in
  let good = Kb.good_experiments kb ~prog:"p1" ~arch:"amd-like" ~within:1.06 in
  Alcotest.(check int) "within 6% of 900" 2 (List.length good);
  let all = Kb.good_experiments kb ~prog:"p1" ~arch:"amd-like" ~within:1.2 in
  Alcotest.(check int) "within 20%" 3 (List.length all)

let test_top_experiments () =
  let kb = sample_kb () in
  let top = Kb.top_experiments kb ~prog:"p1" ~arch:"amd-like" ~k:2 () in
  Alcotest.(check (list int)) "ordered by cycles" [ 900; 950 ]
    (List.map (fun e -> e.Kb.cycles) top);
  (* length filter: only the length-1 sequences *)
  let l1 = Kb.top_experiments kb ~prog:"p1" ~arch:"amd-like" ~k:5 ~length:1 () in
  Alcotest.(check (list int)) "length-filtered" [ 950 ]
    (List.map (fun e -> e.Kb.cycles) l1)

let test_leave_one_out () =
  let kb = sample_kb () in
  let kb' = Kb.without_program kb ~prog:"p1" in
  Alcotest.(check bool) "p1 char gone" true
    (Kb.characterization kb' ~prog:"p1" ~arch:"amd-like" = None);
  Alcotest.(check int) "p1 exps gone" 0
    (List.length (Kb.experiments kb' ~prog:"p1" ~arch:"amd-like"));
  Alcotest.(check int) "p2 intact" 2
    (List.length (Kb.experiments kb' ~prog:"p2" ~arch:"amd-like"));
  (* original untouched *)
  Alcotest.(check int) "original intact" 3
    (List.length (Kb.experiments kb ~prog:"p1" ~arch:"amd-like"))

let test_characterization_replaces () =
  let kb = Kb.create () in
  Kb.add_characterization kb (mk_char "p" "amd-like");
  Kb.add_characterization kb
    { (mk_char "p" "amd-like") with Kb.o0_cycles = 42 };
  Alcotest.(check int) "one char kept" 1 (List.length kb.Kb.chars);
  match Kb.characterization kb ~prog:"p" ~arch:"amd-like" with
  | Some c -> Alcotest.(check int) "newest wins" 42 c.Kb.o0_cycles
  | None -> Alcotest.fail "missing"

let test_roundtrip () =
  let kb = sample_kb () in
  let s = Kb.to_string kb in
  let kb' = Kb.of_string s in
  Alcotest.(check string) "round trip is exact" s (Kb.to_string kb');
  Alcotest.(check int) "same exp count" (Kb.size kb) (Kb.size kb');
  (* feature floats survive exactly thanks to %h *)
  match Kb.characterization kb' ~prog:"p1" ~arch:"amd-like" with
  | Some c ->
    Alcotest.(check (float 0.0)) "exact float" 0.125
      (List.assoc "branch_density" c.Kb.features)
  | None -> Alcotest.fail "missing char after round trip"

let test_file_roundtrip () =
  let kb = sample_kb () in
  let path = Filename.temp_file "kbtest" ".kb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Kb.save kb path;
      let kb' = Kb.load path in
      Alcotest.(check string) "file round trip" (Kb.to_string kb)
        (Kb.to_string kb'))

(* a save that raises (here on a name the format cannot hold) must not
   touch the knowledge base already at its path *)
let test_failed_save_keeps_old () =
  let kb = sample_kb () in
  let path = Filename.temp_file "kbtest" ".kb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Kb.save kb path;
      let bad = sample_kb () in
      Kb.add_experiment bad (mk_exp "bad|name" [ Pass.Dce ] 10);
      (match Kb.save bad path with
       | () -> Alcotest.fail "saved a name holding '|'"
       | exception Kb.Parse_error _ -> ());
      Alcotest.(check string) "old knowledge base intact" (Kb.to_string kb)
        (Kb.to_string (Kb.load path));
      Alcotest.(check bool) "no temporary file left" false
        (Sys.file_exists (path ^ ".tmp")))

let test_parse_errors () =
  let bad s =
    match Kb.of_string s with
    | _ -> Alcotest.failf "accepted malformed input: %s" s
    | exception Kb.Parse_error _ -> ()
  in
  bad "";
  bad "wrong-magic\n";
  bad "mira-kb 1\ngarbage line\n";
  bad "mira-kb 1\nexp|p|a|notapass|100|5\n";
  bad "mira-kb 1\nexp|p|a|dce|xyz|5\n";
  bad "mira-kb 1\nchar|p|a|12|f:bad|c:\n"

let prop_roundtrip_random =
  QCheck.Test.make ~name:"kb round-trips arbitrary contents" ~count:50
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 10)
        (pair (int_bound 4) (int_bound 100000)))
    (fun entries ->
      let kb = Kb.create () in
      let rng = Random.State.make [| 7 |] in
      List.iter
        (fun (pi, cycles) ->
          let prog = Printf.sprintf "prog%d" pi in
          Kb.add_experiment kb
            (mk_exp prog (Search.Space.random_seq rng ()) cycles))
        entries;
      Kb.to_string (Kb.of_string (Kb.to_string kb)) = Kb.to_string kb)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "queries",
      [
        t "best" test_best;
        t "good experiments" test_good_experiments;
        t "top experiments" test_top_experiments;
        t "leave one out" test_leave_one_out;
        t "char replacement" test_characterization_replaces;
      ] );
    ( "serialization",
      [
        t "string roundtrip" test_roundtrip;
        t "file roundtrip" test_file_roundtrip;
        t "parse errors" test_parse_errors;
        t "failed save keeps the old file" test_failed_save_keeps_old;
      ] );
    ( "properties",
      List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_random ] );
  ]

let () = Alcotest.run "knowledge" suite
