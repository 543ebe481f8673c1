(* Experiment harness: regenerates every figure and table of the paper
   (see DESIGN.md's experiment index and EXPERIMENTS.md for measured
   results).

   Usage:
     dune exec bench/main.exe                  # all experiments, fast scale
     dune exec bench/main.exe -- fig2b tab3    # a subset
     dune exec bench/main.exe -- --full        # larger sample sizes
     dune exec bench/main.exe -- --list        # list experiment ids

   The first run builds per-architecture knowledge bases and caches them
   under bench_data/. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("fig2a", "adpcm optimization-space structure + model contours", Fig2.fig2a);
    ("fig2b", "focused vs random iterative search", Fig2.fig2b);
    ("fig3", "mcf counter characterization vs suite average", Fig34.fig3);
    ("fig4", "PCModel vs -Ofast on mcf", Fig34.fig4);
    ("tab1", "classifier comparison (Sec V claim)", Tables.tab1);
    ("tab2", "GA for code size (Cooper et al. baseline)", Tables.tab2);
    ("tab3", "dynamic optimization vs static (Sec III-D)", Tables.tab3);
    ("tab4", "microbenchmark architecture characterization", Tables.tab4);
    ("tab5", "tournament phase ordering (Sec II-A)", Tables.tab5);
    ("feat", "mutual-information feature ranking (Sec III-E)", Tables.feat);
    ("tab6", "method-specific (per-function) compilation [extension]", Extensions.tab6);
    ("tab7", "unroll-factor prediction [extension]", Extensions.tab7);
    ("tab8", "cross-architecture adaptation [extension]", Extensions.tab8);
    ("micro", "bechamel microbenchmarks", Micro.run);
    ("sweep", "prefix-sharing sweep benchmark (cold/warm, share on/off)", Sweep.run);
    ("arch", "architecture-grid replay vs per-config simulation", Arch.run);
  ]

let () =
  Obs.Clock.set Unix.gettimeofday;
  Obs.Trace.set_pid (Unix.getpid ());
  let args = List.tl (Array.to_list Sys.argv) in
  (* -j/--jobs N sizes the evaluation engine's worker pool;
     --inject SPEC installs a deterministic fault plan (testing);
     --trace/--metrics enable the Obs layer like miracc's flags do *)
  let rec strip_opts = function
    | [] -> []
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> Util.jobs := j
       | _ ->
         Fmt.epr "-j expects a positive integer@.";
         exit 1);
      strip_opts rest
    | "--json" :: rest ->
      Util.json_out := true;
      strip_opts rest
    | "--no-share" :: rest ->
      Util.share := false;
      strip_opts rest
    | "--tstore" :: dir :: rest ->
      Util.tstore := Some dir;
      strip_opts rest
    | "--inject" :: spec :: rest ->
      (match Engine.Faults.parse spec with
       | Ok plan -> Engine.Faults.install plan
       | Error e ->
         Fmt.epr "bad --inject spec: %s@." e;
         exit 1);
      strip_opts rest
    | "--trace" :: path :: rest ->
      (match open_out path with
       | oc ->
         Obs.Trace.enable_stream oc;
         let owner = Unix.getpid () in
         at_exit (fun () ->
             if Unix.getpid () = owner then begin
               Obs.Trace.finish ();
               close_out_noerr oc
             end)
       | exception Sys_error e ->
         Fmt.epr "cannot open trace file: %s@." e;
         exit 1);
      strip_opts rest
    | "--metrics" :: path :: rest ->
      Obs.Metrics.timing := true;
      let owner = Unix.getpid () in
      at_exit (fun () ->
          if Unix.getpid () = owner then
            match open_out path with
            | oc ->
              output_string oc (Obs.Metrics.to_jsonl ());
              close_out_noerr oc
            | exception Sys_error e ->
              Fmt.epr "cannot write metrics file: %s@." e);
      strip_opts rest
    | a :: rest -> a :: strip_opts rest
  in
  (try Engine.Faults.install_from_env ()
   with Invalid_argument e ->
     Fmt.epr "bad MIRA_FAULTS: %s@." e;
     exit 1);
  let args = strip_opts args in
  let flags, names = List.partition (fun a -> String.length a > 1 && a.[0] = '-') args in
  if List.mem "--full" flags then Util.scale := Util.Full;
  if List.mem "--list" flags then begin
    List.iter (fun (id, descr, _) -> Fmt.pr "%-6s %s@." id descr) experiments;
    exit 0
  end;
  List.iter
    (fun n ->
      if not (List.exists (fun (id, _, _) -> id = n) experiments) then begin
        Fmt.epr "unknown experiment %S; try --list@." n;
        exit 1
      end)
    names;
  let selected =
    if names = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id names) experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (id, _, f) ->
      let t = Unix.gettimeofday () in
      f ();
      Fmt.pr "@.[%s done in %.1fs]@." id (Unix.gettimeofday () -. t))
    selected;
  Fmt.pr "@.all selected experiments done in %.1fs (%s scale, %d jobs)@."
    (Unix.gettimeofday () -. t0)
    (match !Util.scale with Util.Fast -> "fast" | Util.Full -> "full")
    !Util.jobs;
  Hashtbl.iter
    (fun arch eng ->
      Fmt.pr "@.[engine %s]@.%a" arch (Engine.pp_stats ~wall:true) eng;
      if not (Engine.healthy eng) then Fmt.pr "%a@." Engine.pp_health eng;
      Engine.Rcache.close (Engine.cache eng))
    Util.engines
