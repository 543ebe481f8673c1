(* The evaluation engine: worker pool semantics, persistent result cache,
   and the headline guarantees — parallel evaluation is bit-identical to
   serial, and a warm cache serves everything without simulating. *)

let tmp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------------------------------------------ *)
(* Pool *)

let outcome_int : int Engine.Pool.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Engine.Pool.Done v -> Fmt.pf ppf "Done %d" v
      | Engine.Pool.Failed e -> Fmt.pf ppf "Failed %s" e
      | Engine.Pool.Crashed -> Fmt.pf ppf "Crashed"
      | Engine.Pool.Timed_out -> Fmt.pf ppf "Timed_out")
    ( = )

let test_pool_map_order () =
  let tasks = Array.init 37 (fun i -> i) in
  let expect = Array.map (fun i -> Engine.Pool.Done (i * i)) tasks in
  let got = Engine.Pool.map ~jobs:4 (fun i -> i * i) tasks in
  Alcotest.(check (array outcome_int)) "squares in order" expect got

let test_pool_serial_matches_parallel () =
  let tasks = Array.init 23 (fun i -> i) in
  let f i = (i * 7919) mod 101 in
  Alcotest.(check (array outcome_int))
    "jobs:1 = jobs:4"
    (Engine.Pool.map ~jobs:1 f tasks)
    (Engine.Pool.map ~jobs:4 f tasks)

let test_pool_exception_is_failed () =
  let got =
    Engine.Pool.map ~jobs:3
      (fun i -> if i = 5 then failwith "boom" else i)
      (Array.init 10 (fun i -> i))
  in
  (match got.(5) with
   | Engine.Pool.Failed msg ->
     Alcotest.(check bool) "message mentions boom" true
       (String.length msg > 0)
   | o ->
     Alcotest.failf "expected Failed, got %a" (Alcotest.pp outcome_int) o);
  Array.iteri
    (fun i o ->
      if i <> 5 then
        Alcotest.(check (outcome_int)) "others done" (Engine.Pool.Done i) o)
    got

let test_pool_crash_is_contained () =
  (* one task kills its worker outright; it must be reported Crashed
     (after the retry also crashes) and every other task still done *)
  let got =
    Engine.Pool.map ~jobs:3 ~retries:1
      (fun i -> if i = 4 then Unix._exit 9 else i)
      (Array.init 12 (fun i -> i))
  in
  Alcotest.(check (outcome_int)) "crashed slot" Engine.Pool.Crashed got.(4);
  Array.iteri
    (fun i o ->
      if i <> 4 then
        Alcotest.(check (outcome_int)) "survivors" (Engine.Pool.Done i) o)
    got

let test_pool_workers_overlap () =
  (* sleeps, not CPU: even on a single-core host, concurrent worker
     processes overlap sleeping tasks.  6 x 0.25s is >= 1.5s serially;
     with 3 workers the wall clock must come in well under that. *)
  let t0 = Unix.gettimeofday () in
  let got =
    Engine.Pool.map ~jobs:3
      (fun i ->
        Unix.sleepf 0.25;
        i)
      (Array.init 6 (fun i -> i))
  in
  let wall = Unix.gettimeofday () -. t0 in
  Array.iteri
    (fun i o ->
      Alcotest.(check outcome_int) "task done" (Engine.Pool.Done i) o)
    got;
  Alcotest.(check bool)
    (Printf.sprintf "workers overlapped (%.2fs, serial >= 1.5s)" wall)
    true (wall < 1.2)

let test_pool_timeout () =
  let got =
    Engine.Pool.map ~jobs:3 ~task_timeout:0.3
      (fun i ->
        if i = 2 then Unix.sleepf 30.0;
        i)
      (Array.init 6 (fun i -> i))
  in
  Alcotest.(check (outcome_int)) "timed-out slot" Engine.Pool.Timed_out
    got.(2);
  Array.iteri
    (fun i o ->
      if i <> 2 then
        Alcotest.(check (outcome_int)) "survivors" (Engine.Pool.Done i) o)
    got

(* ------------------------------------------------------------------ *)
(* Rcache *)

let entry_eq (a : Engine.Rcache.entry) (b : Engine.Rcache.entry) = a = b

let entry : Engine.Rcache.entry Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Engine.Rcache.Measured { ir_digest; cycles; code_size; counters } ->
        Fmt.pf ppf "Measured(%s,%d,%d,[%d])" ir_digest cycles code_size
          (Array.length counters)
      | Engine.Rcache.Failure { ir_digest } ->
        Fmt.pf ppf "Failure(%s)" ir_digest)
    entry_eq

(* v3 entries carry the compiled program's IR digest; tests use fixed
   32-hex placeholders *)
let dg c = String.make 32 c

let test_rcache_roundtrip () =
  let dir = tmp_dir "rcache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let m =
        Engine.Rcache.Measured
          { ir_digest = dg 'a'; cycles = 123; code_size = 45;
            counters = [| 1; 2; 3; 0; 7 |] }
      in
      let c = Engine.Rcache.open_dir dir in
      Engine.Rcache.add c "k1" m;
      Engine.Rcache.add c "k2" (Engine.Rcache.Failure { ir_digest = dg 'b' });
      (* last line wins *)
      Engine.Rcache.add c "k2"
        (Engine.Rcache.Measured
           { ir_digest = dg 'c'; cycles = 9; code_size = 1; counters = [||] });
      Engine.Rcache.close c;
      let c2 = Engine.Rcache.open_dir dir in
      Alcotest.(check (option entry)) "k1 persists" (Some m)
        (Engine.Rcache.find c2 "k1");
      Alcotest.(check (option entry)) "k2 last write wins"
        (Some
           (Engine.Rcache.Measured
              { ir_digest = dg 'c'; cycles = 9; code_size = 1;
                counters = [||] }))
        (Engine.Rcache.find c2 "k2");
      Alcotest.(check (option entry)) "absent key" None
        (Engine.Rcache.find c2 "nope");
      Alcotest.(check int) "known" 2 (Engine.Rcache.known c2);
      Engine.Rcache.close c2;
      (* a torn final line (crash mid-append) is dropped at replay *)
      let oc =
        open_out_gen
          [ Open_append; Open_wronly ]
          0o644
          (Filename.concat dir "results.log")
      in
      output_string oc "ok|torn-key|12";
      close_out oc;
      let c3 = Engine.Rcache.open_dir dir in
      Alcotest.(check int) "torn line quarantined" 1
        (Engine.Rcache.quarantined c3);
      Alcotest.(check (option entry)) "torn line dropped" None
        (Engine.Rcache.find c3 "torn-key");
      Alcotest.(check (option entry)) "intact entries survive" (Some m)
        (Engine.Rcache.find c3 "k1");
      Engine.Rcache.close c3)

let test_rcache_lru_bound () =
  let c = Engine.Rcache.in_memory ~mem_capacity:4 () in
  let fail = Engine.Rcache.Failure { ir_digest = dg 'f' } in
  for i = 0 to 9 do
    Engine.Rcache.add c (string_of_int i) fail
  done;
  Alcotest.(check bool) "resident bounded" true (Engine.Rcache.resident c <= 4);
  Alcotest.(check int) "all keys known" 10 (Engine.Rcache.known c);
  (* the most recent keys survive *)
  Alcotest.(check (option entry)) "newest resident" (Some fail)
    (Engine.Rcache.find c "9");
  Alcotest.(check (option entry)) "oldest evicted" None
    (Engine.Rcache.find c "0")

(* ------------------------------------------------------------------ *)
(* Engine *)

let config = Mach.Config.default

let target = Workloads.program (Workloads.by_name_exn "adpcm")

let sequences n =
  let rng = Random.State.make [| 7 |] in
  Search.Space.sample_distinct rng n

let check_outcomes_equal label (a : Engine.outcome array)
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

let test_parallel_identical_to_serial () =
  let seqs = sequences 100 in
  let serial = Engine.create ~jobs:1 config in
  let parallel = Engine.create ~jobs:4 config in
  let a = Engine.eval_batch serial target seqs in
  let b = Engine.eval_batch parallel target seqs in
  check_outcomes_equal "jobs:1 vs jobs:4" a b;
  (* and both match the plain simulator path *)
  List.iteri
    (fun i seq ->
      Alcotest.(check (float 0.0))
        "matches eval_sequence"
        (Icc.Characterize.eval_sequence ~config target seq)
        a.(i).Engine.cost)
    seqs

let test_warm_cache_across_instances () =
  let dir = tmp_dir "engine-cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let seqs = sequences 60 in
      let e1 = Engine.create ~jobs:4 ~cache:(Engine.Rcache.open_dir dir) config in
      let cold = Engine.eval_batch e1 target seqs in
      (* with sharing on, converging sequences are deduped: every miss
         is either simulated or filled from a shared simulation *)
      let s1 = Engine.stats e1 in
      Alcotest.(check int) "cold run simulates or dedups every miss"
        (List.length seqs)
        (s1.Engine.sims + s1.Engine.dedup_hits);
      Alcotest.(check bool) "cold run simulates" true (s1.Engine.sims > 0);
      Engine.Rcache.close (Engine.cache e1);
      (* a second engine instance, same directory: all hits, no sims *)
      let e2 = Engine.create ~jobs:4 ~cache:(Engine.Rcache.open_dir dir) config in
      let warm = Engine.eval_batch e2 target seqs in
      check_outcomes_equal "cold vs warm" cold warm;
      let s = Engine.stats e2 in
      Alcotest.(check int) "warm run simulates nothing" 0 s.Engine.sims;
      Alcotest.(check int) "every eval is a hit" (List.length seqs)
        s.Engine.hits;
      Alcotest.(check (float 0.0)) "hit rate 100%" 1.0 (Engine.hit_rate e2);
      Alcotest.(check bool) "outcomes flagged from_cache" true
        (Array.for_all (fun o -> o.Engine.from_cache) warm);
      Engine.Rcache.close (Engine.cache e2))

(* A result cache written when globals were lowered to full length: the
   padded copy reproduces that lowering's digests, so evaluating it
   writes the keys such a cache holds.  The trimmed program must then
   miss every key and every persisted simulation, cleanly, and price
   each sequence as before. *)
let test_full_length_cache_misses () =
  let dir = tmp_dir "engine-full-length" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let seqs = sequences 30 in
      let e1 = Engine.create ~cache:(Engine.Rcache.open_dir dir) config in
      let old = Engine.eval_batch e1 (Padded.program target) seqs in
      let old_sims = (Engine.stats e1).Engine.sims in
      Engine.Rcache.close (Engine.cache e1);
      let e2 = Engine.create ~cache:(Engine.Rcache.open_dir dir) config in
      let fresh = Engine.eval_batch e2 target seqs in
      check_outcomes_equal "full-length vs trimmed" old fresh;
      Alcotest.(check bool) "nothing served from the old entries" true
        (Array.for_all (fun o -> not o.Engine.from_cache) fresh);
      let s = Engine.stats e2 in
      Alcotest.(check int) "no hits" 0 s.Engine.hits;
      Alcotest.(check int) "no persisted simulation reused" old_sims
        s.Engine.sims;
      Alcotest.(check int) "nothing quarantined" 0
        (Engine.health e2).Engine.cache_quarantined;
      Alcotest.(check bool) "engine healthy" true (Engine.healthy e2);
      Engine.Rcache.close (Engine.cache e2))

let test_duplicate_sequences_simulated_once () =
  let eng = Engine.create ~jobs:4 config in
  let seq = [ Passes.Pass.Const_fold; Passes.Pass.Dce ] in
  let out = Engine.eval_batch eng target [ seq; seq; seq; [] ] in
  Alcotest.(check int) "4 evaluations" 4 (Engine.stats eng).Engine.evals;
  Alcotest.(check int) "2 simulations" 2 (Engine.stats eng).Engine.sims;
  check_outcomes_equal "duplicates agree"
    [| out.(0); out.(1) |] [| out.(1); out.(2) |]

let test_failure_is_cached () =
  let trapping =
    Mira.Lower.compile_source_exn
      "fn main() -> int { var d: int = 0; return 1 / d; }"
  in
  let eng = Engine.create config in
  let o1 = Engine.eval eng trapping [] in
  Alcotest.(check (float 0.0)) "trap costs infinity" infinity o1.Engine.cost;
  let o2 = Engine.eval eng trapping [] in
  Alcotest.(check bool) "second eval served from cache" true
    o2.Engine.from_cache;
  Alcotest.(check int) "one simulation total" 1 (Engine.stats eng).Engine.sims;
  Alcotest.(check int) "both failures counted" 2
    (Engine.stats eng).Engine.failures

let test_eval_many_across_programs () =
  (* generated programs through the shared testgen library: engine
     results match the direct simulator on every (program, seq) pair *)
  let progs =
    List.filter_map
      (fun seed ->
        match Testgen.Gen_program.compile seed with
        | Ok p -> Some p
        | Error _ -> None)
      (List.init 10 (fun i -> 4000 + i))
  in
  let pairs =
    List.concat_map
      (fun p -> [ (p, []); (p, Passes.Pass.o2) ]) progs
  in
  let eng = Engine.create ~jobs:4 config in
  let out = Engine.eval_many eng pairs in
  List.iteri
    (fun i (p, seq) ->
      Alcotest.(check (float 0.0))
        "pair matches eval_sequence"
        (Icc.Characterize.eval_sequence ~config p seq)
        out.(i).Engine.cost)
    pairs

let test_random_plan_replay_matches_random () =
  (* the batched random search (plan + engine + replay) is the serial
     Strategies.random, point for point *)
  let eng = Engine.create ~jobs:4 config in
  let eval = Icc.Characterize.eval_sequence ~config target in
  let budget = 40 in
  let reference = Search.Strategies.random ~seed:11 ~budget eval in
  let seqs = Search.Strategies.random_plan ~seed:11 ~budget () in
  let costs = Engine.costs eng target (Array.to_list seqs) in
  let replayed = Search.Strategies.replay ~seqs ~costs in
  Alcotest.(check (float 0.0))
    "best cost" reference.Search.Strategies.best_cost
    replayed.Search.Strategies.best_cost;
  Alcotest.(check bool) "best sequence" true
    (reference.Search.Strategies.best_seq
     = replayed.Search.Strategies.best_seq);
  Alcotest.(check bool) "full history" true
    (reference.Search.Strategies.history = replayed.Search.Strategies.history)

let () =
  Random.self_init ();
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "serial = parallel" `Quick
            test_pool_serial_matches_parallel;
          Alcotest.test_case "exception -> Failed" `Quick
            test_pool_exception_is_failed;
          Alcotest.test_case "crash contained" `Quick
            test_pool_crash_is_contained;
          Alcotest.test_case "workers overlap" `Quick
            test_pool_workers_overlap;
          Alcotest.test_case "timeout" `Quick test_pool_timeout;
        ] );
      ( "rcache",
        [
          Alcotest.test_case "disk round-trip" `Quick test_rcache_roundtrip;
          Alcotest.test_case "LRU bound" `Quick test_rcache_lru_bound;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parallel identical to serial" `Quick
            test_parallel_identical_to_serial;
          Alcotest.test_case "warm cache across instances" `Quick
            test_warm_cache_across_instances;
          Alcotest.test_case "full-length cache keys miss cleanly" `Quick
            test_full_length_cache_misses;
          Alcotest.test_case "duplicates simulated once" `Quick
            test_duplicate_sequences_simulated_once;
          Alcotest.test_case "failures cached" `Quick test_failure_is_cached;
          Alcotest.test_case "eval_many across programs" `Quick
            test_eval_many_across_programs;
          Alcotest.test_case "plan/replay = random" `Quick
            test_random_plan_replay_matches_random;
        ] );
    ]
