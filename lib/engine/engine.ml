(* The evaluation engine: content-addressed caching + forked parallelism
   over the one hot operation of the whole system, "apply sequence, run
   the simulator, read cycles and counters". *)

module Dlog = Dlog
module Rcache = Rcache
module Pool = Pool
module Faults = Faults
module Journal = Journal
module Pctrie = Pctrie
module Tcache = Tcache
module Tstore = Tstore
module Grid = Grid
module Ir = Mira.Ir
module Pass = Passes.Pass

type outcome = {
  cost : float;
  cycles : int option;
  code_size : int option;
  counters : int array option;
  from_cache : bool;
}

type stats = {
  mutable evals : int;
  mutable hits : int;
  mutable sims : int;
  mutable dedup_hits : int;
  mutable failures : int;
  mutable wall : float;
}

(* Observability: the per-engine [stats] record stays (pp_stats output is
   pinned by the cram tests and callers can hold several engines), but
   every increment is mirrored into the global registry so `--metrics`
   shows engine traffic next to pool/cache health in one table. *)
let m_evals = Obs.Metrics.counter "engine.evals"
let m_hits = Obs.Metrics.counter "engine.cache.hits"
let m_misses = Obs.Metrics.counter "engine.cache.misses"
let m_dedup = Obs.Metrics.counter "engine.dedup_hits"
let m_failures = Obs.Metrics.counter "engine.failures"
let eval_ms = Obs.Metrics.histogram "engine.eval_ms"

(* the simulator step budget of every evaluation; part of every key *)
let fuel = Mach.Sim.default_fuel

type t = {
  config : Mach.Config.t;
  config_digest : string;
  jobs : int;
  max_respawns : int;
  cache : Rcache.t;
  trie : Pctrie.t option;  (* None = sharing disabled (--no-share) *)
  stats : stats;
  pool_health : Pool.health;
}

let create ?(jobs = 1) ?cache ?(max_respawns = Pool.default_max_respawns)
    ?(share = true) config =
  let cache =
    match cache with Some c -> c | None -> Rcache.in_memory ()
  in
  {
    config;
    config_digest = Mach.Config.digest config;
    jobs = max 1 jobs;
    max_respawns;
    cache;
    trie = (if share then Some (Pctrie.create ()) else None);
    stats =
      { evals = 0; hits = 0; sims = 0; dedup_hits = 0; failures = 0;
        wall = 0.0 };
    pool_health = Pool.empty_health ();
  }

let config t = t.config
let jobs t = t.jobs
let cache t = t.cache
let stats t = t.stats
let share t = Option.is_some t.trie
let trie t = t.trie

let hit_rate t =
  if t.stats.evals = 0 then 0.0
  else float_of_int t.stats.hits /. float_of_int t.stats.evals

let ir_digest = Pctrie.digest

(* The cache key binds everything the measurement depends on: program
   text (via its printed IR), sequence, machine configuration, fuel, and
   the pass-set version (DESIGN.md: bump Pass.version when any pass's
   behaviour changes — that is the invalidation rule). *)
let key_of t ~prog_digest seq =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            prog_digest;
            Pass.sequence_to_string seq;
            t.config_digest;
            string_of_int fuel;
            Pass.version;
          ]))

let key t p seq = key_of t ~prog_digest:(ir_digest p) seq

(* The simulation-dedup key: everything the simulator's verdict depends
   on once the code is fixed — the compiled IR, the machine, the fuel.
   The "sim" prefix keeps these entries in their own namespace next to
   the (program, sequence) keys in the same Rcache, so a dedup hit
   survives across runs like any other cached result. *)
let sim_key t ~ir_digest =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ "sim"; ir_digest; t.config_digest; string_of_int fuel ]))

(* Run the simulator on already-compiled code.  A trap or fuel
   exhaustion becomes a cached Failure entry. *)
let run_sim t p' ~ir_digest : Rcache.entry =
  match Mach.Sim.run ~config:t.config ~fuel p' with
  | r ->
    Rcache.Measured
      {
        ir_digest;
        cycles = r.Mach.Sim.cycles;
        code_size = Ir.program_size p';
        counters = Array.copy r.Mach.Sim.counters;
      }
  | exception (Mira.Interp.Trap _ | Mira.Interp.Out_of_fuel) ->
    Rcache.Failure { ir_digest }

(* the no-share measurement: compile under [seq] from scratch, simulate,
   read the bank — the differential baseline for the sharing paths *)
let simulate t p seq : Rcache.entry =
  let p' = Pass.apply_sequence seq p in
  run_sim t p' ~ir_digest:(ir_digest p')

(* Measure one missed key through the sharing layers: compile via the
   trie (each distinct prefix once), then consult the dedup entry for
   the compiled code before paying for a simulator run.  Returns the
   entry to record under the (program, sequence) key. *)
let measure_shared t trie p ~prog_digest seq : Rcache.entry =
  let p', d = Pctrie.apply_sequence trie p ~digest:prog_digest seq in
  let sk = sim_key t ~ir_digest:d in
  match Rcache.find t.cache sk with
  | Some e ->
    t.stats.dedup_hits <- t.stats.dedup_hits + 1;
    Obs.Metrics.incr m_dedup;
    e
  | None ->
    t.stats.sims <- t.stats.sims + 1;
    let e = run_sim t p' ~ir_digest:d in
    Rcache.add t.cache sk e;
    e

let outcome_of_entry ~from_cache = function
  | Rcache.Measured { ir_digest = _; cycles; code_size; counters } ->
    {
      cost = float_of_int cycles;
      cycles = Some cycles;
      code_size = Some code_size;
      counters = Some counters;
      from_cache;
    }
  | Rcache.Failure _ ->
    {
      cost = infinity;
      cycles = None;
      code_size = None;
      counters = None;
      from_cache;
    }

let failed_outcome =
  { cost = infinity; cycles = None; code_size = None; counters = None;
    from_cache = false }

let count_failure t o =
  if o.cost = infinity then begin
    t.stats.failures <- t.stats.failures + 1;
    Obs.Metrics.incr m_failures
  end

let eval_digested t p ~prog_digest seq =
  let go () =
    let t0 = Unix.gettimeofday () in
    let k = key_of t ~prog_digest seq in
    t.stats.evals <- t.stats.evals + 1;
    Obs.Metrics.incr m_evals;
    let o =
      match Rcache.find t.cache k with
      | Some e ->
        t.stats.hits <- t.stats.hits + 1;
        Obs.Metrics.incr m_hits;
        outcome_of_entry ~from_cache:true e
      | None ->
        Obs.Metrics.incr m_misses;
        let e =
          match t.trie with
          | Some trie -> measure_shared t trie p ~prog_digest seq
          | None ->
            t.stats.sims <- t.stats.sims + 1;
            simulate t p seq
        in
        Rcache.add t.cache k e;
        outcome_of_entry ~from_cache:false e
    in
    count_failure t o;
    t.stats.wall <- t.stats.wall +. (Unix.gettimeofday () -. t0);
    o
  in
  Obs.span_with ~cat:"engine" ~hist:eval_ms "engine.eval"
    ~end_args:(fun o ->
      [ ("from_cache", Obs.Trace.Bool o.from_cache);
        ("cost", Obs.Trace.Float o.cost) ])
    go

let eval t p seq = eval_digested t p ~prog_digest:(ir_digest p) seq

let evaluator t p =
  let prog_digest = ir_digest p in
  fun seq -> (eval_digested t p ~prog_digest seq).cost

(* the shared batch core: tasks are (program, sequence) pairs with their
   source digests and cache keys already computed *)
let eval_tasks t (tasks : (Ir.program * Pass.t list) array)
    (digests : string array) (keys : string array) : outcome array =
  let go () =
  let t0 = Unix.gettimeofday () in
  let n = Array.length tasks in
  t.stats.evals <- t.stats.evals + n;
  Obs.Metrics.incr ~by:n m_evals;
  (* resolve cache hits; collect the unique misses in first-seen order so
     the task list (and thus worker count effects) is deterministic *)
  let resolved : (string, Rcache.entry) Hashtbl.t = Hashtbl.create n in
  let missed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let miss_slots = ref [] in
  let placeholder = Rcache.Failure { ir_digest = String.make 32 '0' } in
  Array.iteri
    (fun i k ->
      if not (Hashtbl.mem resolved k) then
        match Rcache.find t.cache k with
        | Some e -> Hashtbl.replace resolved k e
        | None ->
          Hashtbl.replace resolved k placeholder;
          Hashtbl.replace missed k ();
          miss_slots := i :: !miss_slots)
    keys;
  let miss_slots = Array.of_list (List.rev !miss_slots) in
  let nmiss = Array.length miss_slots in
  t.stats.hits <- t.stats.hits + (n - nmiss);
  Obs.Metrics.incr ~by:nmiss m_misses;
  Obs.Metrics.incr ~by:(n - nmiss) m_hits;
  (* crashed / timed-out work costs infinity for this run but is never
     persisted: it is not known to reproduce *)
  let unreliable : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (match t.trie with
   | None ->
     (* no sharing: each worker compiles and simulates its own miss,
        exactly the serial simulate path *)
     t.stats.sims <- t.stats.sims + nmiss;
     let computed =
       Pool.map ~jobs:t.jobs ~health:t.pool_health
         ~max_respawns:t.max_respawns
         (fun i ->
           let p, seq = tasks.(i) in
           simulate t p seq)
         miss_slots
     in
     Array.iteri
       (fun j r ->
         let k = keys.(miss_slots.(j)) in
         match r with
         | Pool.Done e ->
           Hashtbl.replace resolved k e;
           Rcache.add t.cache k e
         | Pool.Failed _ | Pool.Crashed | Pool.Timed_out ->
           Hashtbl.replace unreliable k ())
       computed
   | Some trie ->
     (* Sharing: compile the misses in the parent through the trie, in
        prefix-lexicographic order so the LRU window walks one subtree
        at a time, then ship only the distinct compiled programs to the
        pool.  Workers inherit them by fork, so nothing is marshalled,
        and results are keyed by sim key — output order stays task
        order, bit-identical to the serial path. *)
     let order = Array.copy miss_slots in
     Array.sort
       (fun a b ->
         let c = Pass.compare_sequence (snd tasks.(a)) (snd tasks.(b)) in
         if c <> 0 then c else compare a b)
       order;
     let compiled : (int, Ir.program * string) Hashtbl.t =
       Hashtbl.create (max 16 nmiss)
     in
     Array.iter
       (fun i ->
         let p, seq = tasks.(i) in
         Hashtbl.replace compiled i
           (Pctrie.apply_sequence trie p ~digest:digests.(i) seq))
       order;
     (* one simulation job per distinct, uncached sim key, collected in
        first-seen task order (determinism); every other miss is a
        dedup hit served by that job or by a persisted sim entry *)
     let sk_of : (int, string) Hashtbl.t = Hashtbl.create (max 16 nmiss) in
     let sim_entries : (string, Rcache.entry) Hashtbl.t =
       Hashtbl.create 16
     in
     let job_of_sk : (string, int) Hashtbl.t = Hashtbl.create 16 in
     let jobs_rev = ref [] and njobs = ref 0 and ndedup = ref 0 in
     Array.iter
       (fun i ->
         let p', d = Hashtbl.find compiled i in
         let sk = sim_key t ~ir_digest:d in
         Hashtbl.replace sk_of i sk;
         if Hashtbl.mem job_of_sk sk || Hashtbl.mem sim_entries sk then
           incr ndedup
         else
           match Rcache.find t.cache sk with
           | Some e ->
             Hashtbl.replace sim_entries sk e;
             incr ndedup
           | None ->
             Hashtbl.replace job_of_sk sk !njobs;
             jobs_rev := (sk, p', d) :: !jobs_rev;
             incr njobs)
       miss_slots;
     let sim_jobs = Array.of_list (List.rev !jobs_rev) in
     t.stats.sims <- t.stats.sims + !njobs;
     t.stats.dedup_hits <- t.stats.dedup_hits + !ndedup;
     Obs.Metrics.incr ~by:!ndedup m_dedup;
     (* dispatch in the prefix-local order induced by the jobs' first
        needing sequence: neighbours in the queue share compile state *)
     let sched_rev = ref [] in
     let scheduled = Array.make (max 1 !njobs) false in
     Array.iter
       (fun i ->
         match Hashtbl.find_opt job_of_sk (Hashtbl.find sk_of i) with
         | Some j when not scheduled.(j) ->
           scheduled.(j) <- true;
           sched_rev := j :: !sched_rev
         | _ -> ())
       order;
     let schedule = Array.of_list (List.rev !sched_rev) in
     let computed =
       Pool.map ~jobs:t.jobs ~health:t.pool_health
         ~max_respawns:t.max_respawns
         ~schedule
         (fun j ->
           let _, p', d = sim_jobs.(j) in
           run_sim t p' ~ir_digest:d)
         (Array.init !njobs Fun.id)
     in
     let unreliable_sk : (string, unit) Hashtbl.t = Hashtbl.create 4 in
     Array.iteri
       (fun j r ->
         let sk, _, _ = sim_jobs.(j) in
         match r with
         | Pool.Done e ->
           Hashtbl.replace sim_entries sk e;
           Rcache.add t.cache sk e
         | Pool.Failed _ | Pool.Crashed | Pool.Timed_out ->
           Hashtbl.replace unreliable_sk sk ())
       computed;
     (* fill each missed (program, sequence) key from its sim entry *)
     Array.iter
       (fun i ->
         let k = keys.(i) in
         let sk = Hashtbl.find sk_of i in
         if Hashtbl.mem unreliable_sk sk then
           Hashtbl.replace unreliable k ()
         else begin
           let e = Hashtbl.find sim_entries sk in
           Hashtbl.replace resolved k e;
           Rcache.add t.cache k e
         end)
       miss_slots);
  let out =
    Array.map
      (fun k ->
        if Hashtbl.mem unreliable k then failed_outcome
        else
          outcome_of_entry
            ~from_cache:(not (Hashtbl.mem missed k))
            (Hashtbl.find resolved k))
      keys
  in
  Array.iter (count_failure t) out;
  t.stats.wall <- t.stats.wall +. (Unix.gettimeofday () -. t0);
  (n, nmiss, out)
  in
  if not (Obs.Trace.enabled ()) then
    let _, _, out = go () in
    out
  else
    let n, nmiss, out =
      Obs.Trace.with_span ~cat:"engine" "engine.batch" go
    in
    Obs.Trace.instant ~cat:"engine"
      ~args:
        [ ("tasks", Obs.Trace.Int n); ("misses", Obs.Trace.Int nmiss) ]
      "engine.batch-done";
    out

let eval_batch t p seqs =
  let prog_digest = ir_digest p in
  let tasks = Array.of_list (List.map (fun s -> (p, s)) seqs) in
  let digests = Array.map (fun _ -> prog_digest) tasks in
  let keys = Array.map (fun (_, s) -> key_of t ~prog_digest s) tasks in
  eval_tasks t tasks digests keys

let eval_many t pairs =
  let tasks = Array.of_list pairs in
  (* digest each distinct program once (physical identity is enough: the
     same program value flows through a batch) *)
  let seen : (Ir.program * string) list ref = ref [] in
  let digest_of p =
    match List.find_opt (fun (q, _) -> q == p) !seen with
    | Some (_, d) -> d
    | None ->
      let d = ir_digest p in
      seen := (p, d) :: !seen;
      d
  in
  let digests = Array.map (fun (p, _) -> digest_of p) tasks in
  let keys =
    Array.mapi
      (fun i (_, s) -> key_of t ~prog_digest:digests.(i) s)
      tasks
  in
  eval_tasks t tasks digests keys

let costs t p seqs = Array.map (fun o -> o.cost) (eval_batch t p seqs)

(* ------------------------------------------------------------------ *)
(* health: everything the run survived, pool- and cache-side *)

type health = {
  respawns : int;
  spawn_failures : int;
  crashed_workers : int;
  timeouts : int;
  poisoned : int;
  serial_fallbacks : int;
  cache_quarantined : int;
  cache_write_errors : int;
  stale_locks_broken : int;
}

let health t =
  let h = t.pool_health in
  {
    respawns = h.Pool.respawns;
    spawn_failures = h.Pool.spawn_failures;
    crashed_workers = h.Pool.crashed_workers;
    timeouts = h.Pool.timeouts;
    poisoned = h.Pool.poisoned;
    serial_fallbacks = h.Pool.serial_fallbacks;
    cache_quarantined = Rcache.quarantined t.cache;
    cache_write_errors = Rcache.write_errors t.cache;
    stale_locks_broken = Rcache.stale_locks_broken t.cache;
  }

let healthy t =
  Pool.is_healthy t.pool_health
  && Rcache.quarantined t.cache = 0
  && Rcache.write_errors t.cache = 0
  && Rcache.stale_locks_broken t.cache = 0

let pp_health ppf t =
  if healthy t then Fmt.pf ppf "engine health: ok"
  else begin
    let z = health t in
    let fields =
      [
        ("respawns", z.respawns);
        ("spawn-failures", z.spawn_failures);
        ("crashed-workers", z.crashed_workers);
        ("timeouts", z.timeouts);
        ("poisoned-tasks", z.poisoned);
        ("serial-fallbacks", z.serial_fallbacks);
        ("cache-quarantined", z.cache_quarantined);
        ("cache-write-errors", z.cache_write_errors);
        ("stale-locks-broken", z.stale_locks_broken);
      ]
      |> List.filter (fun (_, v) -> v > 0)
    in
    Fmt.pf ppf "engine health: degraded (%s)"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fields))
  end

let pp_stats ?(wall = true) ppf t =
  let s = t.stats in
  let row k v = Fmt.pf ppf "  %-14s %s@." k v in
  Fmt.pf ppf "engine stats@.";
  row "evaluations" (string_of_int s.evals);
  row "cache hits" (string_of_int s.hits);
  row "cache misses" (string_of_int (s.evals - s.hits));
  row "dedup hits" (string_of_int s.dedup_hits);
  row "simulations" (string_of_int s.sims);
  (match t.trie with
   | None -> ()
   | Some trie ->
     row "trie hits" (string_of_int (Pctrie.hits trie));
     row "trie misses" (string_of_int (Pctrie.misses trie));
     row "trie evictions" (string_of_int (Pctrie.evictions trie)));
  row "failures" (string_of_int s.failures);
  row "hit rate" (Printf.sprintf "%.1f%%" (100.0 *. hit_rate t));
  row "cache entries" (string_of_int (Rcache.known t.cache));
  row "quarantined" (string_of_int (Rcache.quarantined t.cache));
  if wall then row "wall time" (Printf.sprintf "%.3fs" s.wall)
