(* Memoization soundness of the prefix-sharing layer, fuzzed through
   the shared testgen library:
   - trie-shared compilation is structurally identical to direct
     Pass.apply_sequence on every (program, sequence) pair, including
     under a capacity-1 trie that evicts on every step;
   - the sharing engine's outcomes (cost, cycles, code size, counters)
     are those of the no-share engine, batch and serial, so dedup can
     never change a search result;
   - the --no-share escape hatch really is the seed engine: zero trie
     traffic, one simulation per miss. *)

module Pass = Passes.Pass
module Pctrie = Engine.Pctrie

let config = Mach.Config.default

(* generated programs (fixed seed range) plus the real workload the
   sweep benchmark exercises *)
let programs =
  Workloads.program (Workloads.by_name_exn "adpcm")
  :: List.filter_map
       (fun seed ->
         match Testgen.Gen_program.compile seed with
         | Ok p -> Some p
         | Error _ -> None)
       (List.init 12 (fun i -> 7000 + i))

let sequences n seed =
  let rng = Random.State.make [| seed |] in
  Search.Space.sample_distinct rng n

(* the digest captures printed IR plus the printer-omitted state
   (fresh-name counters, global element types/initializers, main), so
   digest equality is structural identity for every later pass and the
   simulator; the printed form is checked too for a readable failure *)
let check_same_program label direct shared =
  Alcotest.(check string)
    (label ^ ": printed IR")
    (Mira.Ir.to_string direct)
    (Mira.Ir.to_string shared);
  Alcotest.(check string)
    (label ^ ": digest")
    (Pctrie.digest direct) (Pctrie.digest shared)

let test_trie_matches_direct () =
  let trie = Pctrie.create () in
  List.iteri
    (fun pi p ->
      let d0 = Pctrie.digest p in
      List.iteri
        (fun si seq ->
          let direct = Pass.apply_sequence seq p in
          let shared, dg = Pctrie.apply_sequence trie p ~digest:d0 seq in
          let label = Printf.sprintf "prog %d seq %d" pi si in
          check_same_program label direct shared;
          Alcotest.(check string)
            (label ^ ": returned digest")
            (Pctrie.digest direct) dg)
        (sequences 25 (100 + pi)))
    programs;
  (* the batch above shares prefixes for real *)
  Alcotest.(check bool) "trie was hit" true (Pctrie.hits trie > 0)

let test_trie_eviction_sound () =
  (* capacity 1: every apply evicts; results must not change *)
  let trie = Pctrie.create ~capacity:1 () in
  let p = List.hd programs in
  let d0 = Pctrie.digest p in
  List.iteri
    (fun si seq ->
      let direct = Pass.apply_sequence seq p in
      let shared, _ = Pctrie.apply_sequence trie p ~digest:d0 seq in
      check_same_program (Printf.sprintf "evicting seq %d" si) direct shared)
    (sequences 12 42);
  Alcotest.(check bool) "evictions happened" true (Pctrie.evictions trie > 0);
  Alcotest.(check bool) "capacity respected" true (Pctrie.resident trie <= 1)

let check_outcomes_match label (a : Engine.outcome array)
    (b : Engine.outcome array) =
  Alcotest.(check int) (label ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Engine.outcome) ->
      let y = b.(i) in
      if
        not
          (x.Engine.cost = y.Engine.cost
          && x.Engine.cycles = y.Engine.cycles
          && x.Engine.code_size = y.Engine.code_size
          && x.Engine.counters = y.Engine.counters)
      then Alcotest.failf "%s: outcome %d differs" label i)
    a

let test_share_outcomes_identical_batch () =
  List.iteri
    (fun pi p ->
      let seqs = sequences 40 (500 + pi) in
      let off = Engine.create ~share:false config in
      let on_ = Engine.create ~share:true config in
      let a = Engine.eval_batch off p seqs in
      let b = Engine.eval_batch on_ p seqs in
      check_outcomes_match (Printf.sprintf "prog %d" pi) a b;
      (* sharing must actually have shared on batches this size *)
      let s = Engine.stats on_ in
      Alcotest.(check int)
        (Printf.sprintf "prog %d: misses all served" pi)
        (List.length seqs)
        (s.Engine.sims + s.Engine.dedup_hits))
    programs

let test_share_outcomes_identical_serial () =
  let p = List.hd programs in
  let off = Engine.create ~share:false config in
  let on_ = Engine.create ~share:true config in
  List.iteri
    (fun i seq ->
      let a = Engine.eval off p seq in
      let b = Engine.eval on_ p seq in
      if a.Engine.cost <> b.Engine.cost then
        Alcotest.failf "serial eval %d differs" i)
    (sequences 30 9)

let test_no_share_is_seed_engine () =
  let eng = Engine.create ~share:false config in
  Alcotest.(check bool) "share off" false (Engine.share eng);
  Alcotest.(check bool) "no trie" true (Engine.trie eng = None);
  let p = List.hd programs in
  let seqs = sequences 20 3 in
  ignore (Engine.eval_batch eng p seqs);
  let s = Engine.stats eng in
  Alcotest.(check int) "one simulation per miss" (List.length seqs)
    s.Engine.sims;
  Alcotest.(check int) "no dedup" 0 s.Engine.dedup_hits

(* ------------------------------------------------------------------ *)
(* the digest: what it hashes, and that the zero tail is implicit *)

let compile src = Mira.Lower.compile_source_exn src

let test_digest_ignores_written_zeros () =
  let src init =
    Printf.sprintf
      "global g: int[8] = {%s}; fn main() -> int { return g[1]; }" init
  in
  Alcotest.(check string) "{1, 2} = {1, 2, 0, 0}"
    (Pctrie.digest (compile (src "1, 2")))
    (Pctrie.digest (compile (src "1, 2, 0, 0")))

(* every field the printer omits, plus the printed size, moves the
   digest: a key that missed one would serve a result across programs
   that run differently *)
let test_digest_covers_hidden_state () =
  let p =
    compile
      {|global g: int[8] = {1, 2, 3};
        fn f(x: int) -> int { return x + g[2]; }
        fn main() -> int { return f(g[1]); }|}
  in
  let d = Pctrie.digest p in
  let map_global f =
    { p with Mira.Ir.globals = List.map f p.Mira.Ir.globals }
  in
  let map_main f =
    Mira.Ir.update_func p (f (Mira.Ir.find_func p "main"))
  in
  List.iter
    (fun (label, p') ->
      if Pctrie.digest p' = d then
        Alcotest.failf "digest ignores a change of %s" label)
    [
      ( "one initializer element",
        map_global (fun g ->
            let a = Array.copy g.Mira.Ir.ginit in
            a.(1) <- 7.0;
            { g with Mira.Ir.ginit = a }) );
      ( "the sign of a zero initializer",
        map_global (fun g ->
            { g with Mira.Ir.ginit = Array.append g.Mira.Ir.ginit [| -0.0 |] })
      );
      ( "gelt",
        map_global (fun g -> { g with Mira.Ir.gelt = Mira.Ir.EltInt32 }) );
      ("gsize", map_global (fun g -> { g with Mira.Ir.gsize = 9 }));
      ( "nregs",
        map_main (fun f -> { f with Mira.Ir.nregs = f.Mira.Ir.nregs + 1 }) );
      ( "nlabels",
        map_main (fun f -> { f with Mira.Ir.nlabels = f.Mira.Ir.nlabels + 1 })
      );
      ("main", { p with Mira.Ir.main = "f" });
    ]

(* A program with its zero tail written out hashes to the key the
   full-length lowering gave it, pinned here, so caches written under
   that lowering are the fixture of test_engine and test_tstore.  The
   trimmed program's key differs unless it has no zero tail. *)
let test_digest_of_padded_copy () =
  List.iter
    (fun (name, full, same) ->
      let p = Workloads.program (Workloads.by_name_exn name) in
      Alcotest.(check string) (name ^ ": padded copy") full
        (Pctrie.digest (Padded.program p));
      Alcotest.(check bool) (name ^ ": trimmed keeps the key") same
        (Pctrie.digest p = full))
    [
      ("adpcm", "ae150635522710a9eaeef5f698a102c1", false);
      ("mcf_spars", "5fbecd432af44bc1cd82c6ee573d454f", false);
      ("bitcount", "c3472e9e43865cd598b9d4bf50816402", true);
    ]

let () =
  Alcotest.run "sharing"
    [
      ( "pctrie",
        [
          Alcotest.test_case "trie = direct compilation" `Quick
            test_trie_matches_direct;
          Alcotest.test_case "eviction is sound" `Quick
            test_trie_eviction_sound;
        ] );
      ( "digest",
        [
          Alcotest.test_case "written zeros are implicit" `Quick
            test_digest_ignores_written_zeros;
          Alcotest.test_case "covers the printer-omitted state" `Quick
            test_digest_covers_hidden_state;
          Alcotest.test_case "padded copy keeps the full-length key" `Quick
            test_digest_of_padded_copy;
        ] );
      ( "engine",
        [
          Alcotest.test_case "batch outcomes = no-share" `Quick
            test_share_outcomes_identical_batch;
          Alcotest.test_case "serial outcomes = no-share" `Quick
            test_share_outcomes_identical_serial;
          Alcotest.test_case "--no-share is the seed engine" `Quick
            test_no_share_is_seed_engine;
        ] );
    ]
