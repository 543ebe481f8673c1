(* The distributed-sweep benchmark: coordinator/worker sharding against
   the single-process sweep, on fig2a's sampling (adpcm under distinct
   length-5 sequences on the c6713-like machine).

   Two timed comparisons, every run on fresh cacheless engines and
   fresh run directories so the timings are honest (no warm cache, no
   resumed journal), each with a differential oracle demanding the
   distributed cost vectors bit-identical to the serial one before any
   speedup is reported:

   - simulation-bound: the evaluation is pure local CPU (the
     simulator).  Speedup here tracks the machine's core count — on a
     single-core host the workers timeshare and the numbers show the
     orchestration overhead instead; [cores] is reported alongside.

   - measurement-bound: each item's evaluation includes a fixed
     target-measurement latency, the regime the paper's cluster sweeps
     live in (a sequence's cost comes from running it on a target
     system, so the sweep waits far more than it computes).  Workers
     overlap their waits regardless of core count, so this is the
     representative scaling number for distributed operation.

   A final fault-injected phase re-runs the 2-worker sweep with
   dist-worker-exit@0 installed — a worker is killed right after
   journaling the first chunk of shard 0 — and checks the sweep still
   completes with the identical cost vector, counting the deaths,
   re-queues and respawns it survived.

   With --json the numbers land in BENCH_dist.json (baseline checked
   in; CI regenerates and uploads one per run). *)

let target_name = "adpcm"
let config = Mach.Config.c6713_like

let sample_count () =
  match !Util.scale with Util.Fast -> 400 | Util.Full -> 1600

(* the measurement-bound phase: fewer items, each carrying the modeled
   target-system latency *)
let measured_count () =
  match !Util.scale with Util.Fast -> 200 | Util.Full -> 400

let measured_latency = 0.04 (* s per item: a fast target-system run *)

let json_file = "BENCH_dist.json"

let cores () =
  match
    let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
    let line = input_line ic in
    ignore (Unix.close_process_in ic);
    int_of_string_opt (String.trim line)
  with
  | Some n -> n
  | None | (exception _) -> 1

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* a fresh run directory per timed phase: resumable journals are the
   feature, but here they would fake the speedup *)
let fresh_dir name =
  Util.ensure_dir ();
  let dir = Filename.concat Util.data_dir ("distbench-" ^ name) in
  rm_rf dir;
  dir

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* chunked evaluation with the phase's per-item latency — the same
   function drives the serial baseline and every worker, so the
   comparison is fair by construction *)
let eval_chunk ~latency eng target seqs lo hi =
  let costs =
    Engine.costs eng target (Array.to_list (Array.sub seqs lo (hi - lo)))
  in
  if latency > 0.0 then
    ignore (Unix.select [] [] [] (latency *. float_of_int (hi - lo)));
  costs

let chunk_size = 25

let serial_costs ~latency target seqs =
  let eng = Engine.create ~jobs:1 ~share:!Util.share config in
  let n = Array.length seqs in
  let out = Array.make n 0.0 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + chunk_size) in
    Array.blit (eval_chunk ~latency eng target seqs !lo hi) 0 out !lo (hi - !lo);
    lo := hi
  done;
  Engine.Rcache.close (Engine.cache eng);
  out

let dist_costs ~latency ~workers ~dir target seqs =
  let n = Array.length seqs in
  let spec =
    { Engine.Dist.job = Printf.sprintf "distbench-%s-%d-%f" target_name n latency;
      n; chunk_size; shards = min n (workers * 4) }
  in
  let make_eval ~worker_dir =
    let cache = Engine.Rcache.open_dir (Filename.concat worker_dir "cache") in
    let weng = Engine.create ~jobs:1 ~cache ~share:!Util.share config in
    eval_chunk ~latency weng target seqs
  in
  Engine.Dist.sweep_local ~workers ~dir spec ~make_eval

let check_identical ~what serial costs =
  if costs <> serial then begin
    Fmt.epr
      "dist: MISMATCH between serial and %s cost vectors — distribution \
       changed an outcome@."
      what;
    exit 1
  end

(* one serial-vs-{1,2,4}-worker comparison; returns
   (serial wall, [(workers, wall, stats)]) *)
let compare_phase ~tag ~latency target seqs =
  let serial, serial_s =
    timed (fun () -> serial_costs ~latency target seqs)
  in
  let runs =
    List.map
      (fun workers ->
        let dir = fresh_dir (Printf.sprintf "%s-w%d" tag workers) in
        let (st, costs), wall =
          timed (fun () -> dist_costs ~latency ~workers ~dir target seqs)
        in
        check_identical
          ~what:(Printf.sprintf "%s %d-worker" tag workers)
          serial costs;
        (workers, wall, st))
      [ 1; 2; 4 ]
  in
  let speedup wall = Printf.sprintf "%.2fx" (serial_s /. wall) in
  Util.print_table
    [ "mode"; "wall"; "speedup"; "steals"; "deaths" ]
    ([ [ "serial"; Printf.sprintf "%.3fs" serial_s; "1.00x"; "-"; "-" ] ]
     @ List.map
         (fun (w, wall, st) ->
           [ Printf.sprintf "%d worker%s" w (if w = 1 then "" else "s");
             Printf.sprintf "%.3fs" wall; speedup wall;
             string_of_int st.Engine.Dist.steals;
             string_of_int st.Engine.Dist.worker_deaths ])
         runs);
  Fmt.pr "outcomes bit-identical across all worker counts@.";
  (serial, serial_s, runs)

let write_json ~n_sim ~sim_serial_s ~sim_runs ~n_meas ~meas_serial_s
    ~meas_runs ~fault_stats ~fault_s =
  let open Obs.Json in
  let runs prefix serial_s =
    List.concat_map (fun (w, wall, _) ->
        [
          (Printf.sprintf "%sworkers%d_s" prefix w, fixed 3 wall);
          (Printf.sprintf "%sspeedup_w%d" prefix w, fixed 2 (serial_s /. wall));
        ])
  in
  let fs : Engine.Dist.stats = fault_stats in
  Util.write_report json_file
    (Obj
       ([
          ("schema", Str "icc-bench-dist/1");
          ("target", Str target_name);
          ("arch", Str config.Mach.Config.name);
          ("cores", int (cores ()));
          ("sim_sequences", int n_sim);
          ("sim_serial_s", fixed 3 sim_serial_s);
        ]
       @ runs "sim_" sim_serial_s sim_runs
       @ [
           ("measured_sequences", int n_meas);
           ("measured_latency_ms", fixed 0 (measured_latency *. 1000.0));
           ("serial_s", fixed 3 meas_serial_s);
         ]
       @ runs "" meas_serial_s meas_runs
       @ [
           ("identical", Bool true);
           ("faulted_workers", int 2);
           ("faulted_s", fixed 3 fault_s);
           ("faulted_deaths", int fs.Engine.Dist.worker_deaths);
           ("faulted_requeues", int fs.Engine.Dist.requeues);
           ("faulted_respawns", int fs.Engine.Dist.respawns);
           ("faulted_identical", Bool true);
         ]))

let run () =
  Util.header "Distributed sweep: coordinator/worker sharding vs serial";
  let target = Workloads.program (Workloads.by_name_exn target_name) in
  let rng = Random.State.make [| 20080101 |] in
  let n_sim = sample_count () in
  let all_seqs = Array.of_list (Search.Space.sample_distinct rng n_sim) in
  let n_meas = min (measured_count ()) n_sim in
  let meas_seqs = Array.sub all_seqs 0 n_meas in

  Util.subheader
    (Printf.sprintf "simulation-bound: %d sequences, pure local CPU (%d core%s)"
       n_sim (cores ()) (if cores () = 1 then "" else "s"));
  let _, sim_serial_s, sim_runs =
    compare_phase ~tag:"sim" ~latency:0.0 target all_seqs
  in

  Util.subheader
    (Printf.sprintf
       "measurement-bound: %d sequences, %.0fms target-system latency each"
       n_meas (measured_latency *. 1000.0));
  let meas_serial, meas_serial_s, meas_runs =
    compare_phase ~tag:"meas" ~latency:measured_latency target meas_seqs
  in

  (* fault-injected phase: kill a worker right after its first journaled
     chunk and demand the same numbers anyway *)
  Util.subheader "fault injection: dist-worker-exit@0, 2 workers";
  let dir = fresh_dir "faulted" in
  let (fst_, fcosts), fault_s =
    Engine.Faults.with_plan
      (Engine.Faults.parse_exn "dist-worker-exit@0")
      (fun () ->
        timed (fun () ->
            dist_costs ~latency:measured_latency ~workers:2 ~dir target
              meas_seqs))
  in
  check_identical ~what:"fault-injected 2-worker" meas_serial fcosts;
  Fmt.pr
    "survived: %d death(s), %d requeue(s), %d respawn(s), %.3fs, \
     outcomes identical@."
    fst_.Engine.Dist.worker_deaths fst_.Engine.Dist.requeues
    fst_.Engine.Dist.respawns fault_s;
  if !Util.json_out then
    write_json ~n_sim ~sim_serial_s ~sim_runs ~n_meas ~meas_serial_s
      ~meas_runs ~fault_stats:fst_ ~fault_s
