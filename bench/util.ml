(* Shared infrastructure for the experiment harness: scale settings, disk
   caching of knowledge bases (they are the expensive artifact), and table
   formatting. *)

type scale = Fast | Full

let scale = ref Fast

let per_program () = match !scale with Fast -> 60 | Full -> 120

(* worker processes for the evaluation engine (main.ml's -j flag) *)
let jobs = ref 1

(* main.ml's --json flag: the micro experiment writes BENCH_micro.json,
   the sweep experiment BENCH_sweep.json *)
let json_out = ref false

(* write one --json report document and say so *)
let write_report file doc =
  Obs.Json.write_file file (Obs.Json.to_doc doc);
  Fmt.pr "@.[wrote %s]@." file

(* main.ml's --no-share flag: disable the engine's prefix-sharing trie
   and simulation dedup (the differential baseline) *)
let share = ref true

(* main.ml's --tstore flag: persistent trace store directory for the
   arch experiment's cross-run warm phase (empty first run populates it;
   later runs replay straight from disk) *)
let tstore : string option ref = ref None

let data_dir = "bench_data"

let ensure_dir () =
  if not (Sys.file_exists data_dir) then Sys.mkdir data_dir 0o755

(* One evaluation engine per architecture, each backed by a persistent
   result cache under bench_data/: re-running an experiment costs cache
   lookups, not simulations. *)
let engines : (string, Engine.t) Hashtbl.t = Hashtbl.create 4

let engine_for (config : Mach.Config.t) : Engine.t =
  match Hashtbl.find_opt engines config.Mach.Config.name with
  | Some eng -> eng
  | None ->
    ensure_dir ();
    let cache =
      Engine.Rcache.open_dir
        (Filename.concat data_dir ("rescache-" ^ config.Mach.Config.name))
    in
    let eng = Engine.create ~jobs:!jobs ~cache ~share:!share config in
    Hashtbl.replace engines config.Mach.Config.name eng;
    eng

(* Checkpointed sweep: evaluate [seqs] on [target] in journaled chunks
   (bench_data/journal-<id>.log, crash-safe appends), so a killed run —
   ^C, OOM, power — resumes from the last completed chunk instead of
   restarting, and produces byte-identical costs.  The journal key binds
   the program, machine, and sequence list: any change invalidates it. *)
let sweep_chunk = 100

let sweep_costs (eng : Engine.t) ~id target seqs =
  ensure_dir ();
  let seqs = Array.of_list seqs in
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (Mach.Config.digest (Engine.config eng)
            :: Engine.ir_digest target
            :: Array.to_list
                 (Array.map Passes.Pass.sequence_to_string seqs))))
  in
  let path = Filename.concat data_dir ("journal-" ^ id ^ ".log") in
  Engine.Journal.run ~path ~key ~chunk_size:sweep_chunk
    ~n:(Array.length seqs) (fun lo hi ->
      Engine.costs eng target (Array.to_list (Array.sub seqs lo (hi - lo))))

(* One knowledge base per (arch, per_program); built over the full workload
   suite and cached on disk.  Experiments requiring leave-one-out use
   Kb.without_program on the loaded KB. *)
let kb_for (config : Mach.Config.t) : Knowledge.Kb.t =
  ensure_dir ();
  let path =
    Printf.sprintf "%s/suite-%s-pp%d.kb" data_dir config.Mach.Config.name
      (per_program ())
  in
  if Sys.file_exists path then Knowledge.Kb.load path
  else begin
    Fmt.pr "  [building knowledge base for %s: %d programs x %d sequences...]@."
      config.Mach.Config.name
      (List.length Workloads.all)
      (per_program ());
    let t0 = Unix.gettimeofday () in
    let programs =
      List.map (fun w -> (w.Workloads.name, Workloads.program w)) Workloads.all
    in
    let kb =
      Icc.Characterize.build_kb ~engine:(engine_for config)
        ~per_program:(per_program ()) programs
    in
    Knowledge.Kb.save kb path;
    Fmt.pr "  [knowledge base ready: %d experiments in %.0fs, cached at %s]@."
      (Knowledge.Kb.size kb)
      (Unix.gettimeofday () -. t0)
      path;
    kb
  end

let header title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "============================================================@."

let subheader t = Fmt.pr "@.--- %s ---@." t

let geomean xs =
  match xs with
  | [] -> 1.0
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float_of_int (List.length xs))

(* simple aligned table printer *)
let print_table (headers : string list) (rows : string list list) =
  let cols = List.length headers in
  let widths = Array.make cols 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) headers;
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if i < cols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let print_row row =
    List.iteri
      (fun i cell ->
        if i < cols then Fmt.pr "%s%s  " cell (String.make (widths.(i) - String.length cell) ' '))
      row;
    Fmt.pr "@."
  in
  print_row headers;
  print_row (List.map (fun _ -> "") headers |> List.mapi (fun i _ -> String.make widths.(i) '-'));
  List.iter print_row rows

let pct x = Printf.sprintf "%.1f%%" x
let f2 x = Printf.sprintf "%.2f" x
let f0 x = Printf.sprintf "%.0f" x
