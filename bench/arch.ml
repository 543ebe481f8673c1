(* The architecture-grid sweep benchmark: trace-once/model-many against
   per-config full simulation, over the whole workload suite and the
   three preset machine configs.

   Per workload, timed quantities (best-of-N wall time, to damp
   scheduler noise):
     base — one full Flatsim run per config (3x semantic execution);
     cold — Mtrace.generate + Replay.run_grid (the first time a program
            meets the grid: semantics once, then one model fold per
            config), also recorded split into its generate and replay
            components so a sub-1x cold speedup is attributable;
     warm — Replay.run_grid alone (the trace already sits in the trace
            cache: every later config, and every re-measure, is pure
            model folding).

   With --tstore DIR a fourth, cross-run phase runs against the
   persistent trace store (Engine.Tstore): the first invocation
   populates DIR, every later invocation loads each trace back
   (store_load_ms, once — the decode is paid per process, not per
   config) and replays the grid from the loaded trace (store_warm_ms).
   Trace generation is eliminated entirely; the oracle below holds for
   the store-loaded trace too, so the persisted path is bit-identical.

   A differential oracle checks the grid results bit-identical (cycles,
   full counter bank, ret, output, steps) to the three independent
   Flatsim runs before any speedup is reported; a mismatch fails the
   benchmark.

   With --json the numbers land in BENCH_arch.json (baseline checked
   in; CI regenerates and uploads one per run). *)

let configs =
  [| Mach.Config.amd_like; Mach.Config.c6713_like; Mach.Config.embedded |]

let json_file = "BENCH_arch.json"

(* MIRA_BENCH_REPS overrides the repeat count (the cram smoke test runs
   with 1: it checks table/JSON shape, not timing quality) *)
let reps () =
  match Option.bind (Sys.getenv_opt "MIRA_BENCH_REPS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> ( match !Util.scale with Util.Fast -> 5 | Util.Full -> 9)

type store_row = {
  load_ms : float;   (* Tstore.find: read + checksum + decode, once *)
  swarm_ms : float;  (* grid replay from the store-loaded trace *)
  bytes : int;       (* encoded payload size on disk *)
}

type row = {
  name : string;
  base_ms : float;
  cold_ms : float;
  cold_gen_ms : float;
  cold_replay_ms : float;
  warm_ms : float;
  trace_words : int;
  store : store_row option;
}

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    f ();
    let d = Unix.gettimeofday () -. t0 in
    if d < !best then best := d
  done;
  !best *. 1000.0

(* bit-identity of one simulator result pair; Stdlib.compare so float
   returns match by bit-pattern semantics (NaN = NaN) *)
let same (a : Mach.Flatsim.result) (b : Mach.Flatsim.result) =
  Stdlib.compare
    ( a.Mach.Flatsim.cycles, a.Mach.Flatsim.counters, a.Mach.Flatsim.ret,
      a.Mach.Flatsim.output, a.Mach.Flatsim.steps )
    ( b.Mach.Flatsim.cycles, b.Mach.Flatsim.counters, b.Mach.Flatsim.ret,
      b.Mach.Flatsim.output, b.Mach.Flatsim.steps )
  = 0

let bench_workload n ts (w : Workloads.t) : row * bool =
  let p = Workloads.program w in
  let dp = Mira.Decode.decode p in
  let tr = Mach.Mtrace.generate dp in
  (* oracle first: the grid replay must reproduce each config's full
     simulation exactly *)
  let fuel = Mach.Sim.default_fuel in
  let grid = Mach.Replay.run_grid ~configs tr in
  let full =
    Array.map (fun config -> Mach.Flatsim.run ~config ~fuel dp) configs
  in
  let identical = ref (Array.for_all2 same grid full) in
  if not !identical then
    Fmt.epr "arch: MISMATCH on %s — grid replay differs from full \
             simulation@."
      w.Workloads.name;
  let base_ms =
    best_of n (fun () ->
        Array.iter
          (fun config -> ignore (Mach.Flatsim.run ~config ~fuel dp))
          configs)
  in
  let cold_ms =
    best_of n (fun () ->
        let tr = Mach.Mtrace.generate dp in
        ignore (Mach.Replay.run_grid ~configs tr))
  in
  let warm_ms =
    best_of n (fun () -> ignore (Mach.Replay.run_grid ~configs tr))
  in
  (* cold, attributed: the generate half measured alone; the replay
     half of a cold run is exactly the warm quantity (same trace, same
     grid), so alias it rather than re-measure *)
  let cold_gen_ms =
    best_of n (fun () -> ignore (Mach.Mtrace.generate dp))
  in
  let cold_replay_ms = warm_ms in
  let store =
    match ts with
    | None -> None
    | Some ts ->
      let ir_digest = Engine.Pctrie.digest p in
      if not (Engine.Tstore.mem ts ~ir_digest ~fuel) then
        Engine.Tstore.add ts ~ir_digest ~fuel tr;
      let t0 = Unix.gettimeofday () in
      (match Engine.Tstore.find ts ~ir_digest ~fuel with
       | None ->
         Fmt.epr "arch: %s vanished from the trace store@." w.Workloads.name;
         identical := false;
         None
       | Some tr' ->
         let load_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
         (* the oracle extends to the persisted path: the store-loaded
            trace must replay bit-identical to full simulation *)
         let grid' = Mach.Replay.run_grid ~configs tr' in
         if not (Array.for_all2 same grid' full) then begin
           Fmt.epr "arch: MISMATCH on %s — store-loaded replay differs \
                    from full simulation@."
             w.Workloads.name;
           identical := false
         end;
         let swarm_ms =
           best_of n (fun () -> ignore (Mach.Replay.run_grid ~configs tr'))
         in
         let bytes = String.length (Mach.Mtrace.encode tr) in
         Some { load_ms; swarm_ms; bytes })
  in
  ( { name = w.Workloads.name; base_ms; cold_ms; cold_gen_ms;
      cold_replay_ms; warm_ms; trace_words = tr.Mach.Mtrace.n; store },
    !identical )

let write_json ~identical (rows : row list) =
  let stored =
    List.filter_map (fun r -> Option.map (fun s -> (r, s)) r.store) rows
  in
  let with_store = List.length stored = List.length rows in
  let total f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let stored_total f = List.fold_left (fun a (r, s) -> a +. f r s) 0.0 stored in
  let gm f = Util.geomean (List.map f rows) in
  let open Obs.Json in
  let row r =
    Obj
      ([ ("name", Str r.name); ("base_ms", fixed 3 r.base_ms);
         ("cold_ms", fixed 3 r.cold_ms); ("cold_gen_ms", fixed 3 r.cold_gen_ms);
         ("cold_replay_ms", fixed 3 r.cold_replay_ms);
         ("warm_ms", fixed 3 r.warm_ms);
         ("speedup_cold", fixed 2 (r.base_ms /. r.cold_ms));
         ("speedup_warm", fixed 2 (r.base_ms /. r.warm_ms));
         ("trace_words", int r.trace_words) ]
      @
      match r.store with
      | Some s ->
        [ ("store_load_ms", fixed 3 s.load_ms);
          ("store_warm_ms", fixed 3 s.swarm_ms);
          ("speedup_store", fixed 2 (r.base_ms /. s.swarm_ms));
          ("trace_bytes", int s.bytes) ]
      | None -> [])
  in
  Util.write_report json_file
    (Obj
       ([ ("schema", Str "icc-bench-arch/2");
          ( "configs",
            List
              (Array.to_list
                 (Array.map (fun c -> Str c.Mach.Config.name) configs)) );
          ("reps", int (reps ())); ("identical", Bool identical);
          ("tstore", Bool with_store); ("workloads", List (List.map row rows));
          ( "geomean_speedup_cold",
            fixed 2 (gm (fun r -> r.base_ms /. r.cold_ms)) );
          ( "geomean_speedup_warm",
            fixed 2 (gm (fun r -> r.base_ms /. r.warm_ms)) ) ]
       @ (if with_store then
            [ ( "geomean_speedup_store",
                fixed 2
                  (Util.geomean
                     (List.map (fun (r, s) -> r.base_ms /. s.swarm_ms) stored))
              );
              ( "bytes_per_word",
                fixed 2
                  (stored_total (fun _ s -> float_of_int s.bytes)
                  /. stored_total (fun r _ -> float_of_int r.trace_words)) );
              ( "total_store_warm_ms",
                fixed 1 (stored_total (fun _ s -> s.swarm_ms)) ) ]
          else [])
       @ [ ("total_base_ms", fixed 1 (total (fun r -> r.base_ms)));
           ("total_cold_ms", fixed 1 (total (fun r -> r.cold_ms)));
           ("total_warm_ms", fixed 1 (total (fun r -> r.warm_ms))) ]))

let run () =
  Util.header
    "Architecture-grid benchmark: trace-once/model-many vs per-config \
     simulation";
  let n = reps () in
  let ts = Option.map Engine.Tstore.open_dir !Util.tstore in
  Fmt.pr "%d workloads x %d configs (%s), best of %d runs%s@."
    (List.length Workloads.all) (Array.length configs)
    (String.concat ", "
       (List.map
          (fun c -> c.Mach.Config.name)
          (Array.to_list configs)))
    n
    (match !Util.tstore with
     | Some dir -> Printf.sprintf ", trace store at %s" dir
     | None -> "");
  let rows, oks =
    List.split (List.map (bench_workload n ts) Workloads.all)
  in
  (match ts with
   | Some ts ->
     Fmt.pr "trace store: %d entries, %d hits, %d misses, %d bytes on disk@."
       (Engine.Tstore.entries ts) (Engine.Tstore.hits ts)
       (Engine.Tstore.misses ts)
       (Engine.Tstore.bytes_on_disk ts);
     Engine.Tstore.close ts
   | None -> ());
  let identical = List.for_all (fun b -> b) oks in
  if not identical then exit 1;
  let with_store = List.for_all (fun r -> r.store <> None) rows in
  Util.print_table
    ([ "workload"; "3x flatsim"; "cold (gen+grid)"; "gen"; "warm (grid)";
       "cold speedup"; "warm speedup"; "trace words" ]
    @ if with_store then [ "store warm"; "store speedup" ] else [])
    (List.map
       (fun r ->
         [ r.name;
           Printf.sprintf "%.2fms" r.base_ms;
           Printf.sprintf "%.2fms" r.cold_ms;
           Printf.sprintf "%.2fms" r.cold_gen_ms;
           Printf.sprintf "%.2fms" r.warm_ms;
           Printf.sprintf "%.2fx" (r.base_ms /. r.cold_ms);
           Printf.sprintf "%.2fx" (r.base_ms /. r.warm_ms);
           string_of_int r.trace_words ]
         @
         match r.store with
         | Some s ->
           [ Printf.sprintf "%.2fms" s.swarm_ms;
             Printf.sprintf "%.2fx" (r.base_ms /. s.swarm_ms) ]
         | None -> [])
       rows);
  let gm f = Util.geomean (List.map f rows) in
  Fmt.pr
    "@.all outcomes bit-identical across engines and configs%s@.geomean \
     speedup: cold %.2fx, warm %.2fx%s (grid of %d configs)@."
    (if with_store then " (incl. the persisted-trace path)" else "")
    (gm (fun r -> r.base_ms /. r.cold_ms))
    (gm (fun r -> r.base_ms /. r.warm_ms))
    (if with_store then
       Printf.sprintf ", store %.2fx"
         (gm (fun r ->
              match r.store with
              | Some s -> r.base_ms /. s.swarm_ms
              | None -> 1.0))
     else "")
    (Array.length configs);
  if !Util.json_out then write_json ~identical rows
