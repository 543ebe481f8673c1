(* Run-level trace merging.  See merge.mli; implementation notes:

   - Each input is a file our own stream sink wrote: "[\n" then one JSON
     event object per line (trailing comma on all but the last), with an
     optional "\n]\n" terminator.  A process killed mid-write leaves a
     torn final line; anything that does not read as a complete object
     on one line is counted in [skipped] and dropped — merging a crashed
     run is the point, not an error.
   - Correlation and rebasing both hang off the "trace.run" instant each
     process emits ({!Trace.set_run}): its ["id"] arg is the shared run
     id, its ["epoch_s"] arg is that process's trace epoch in absolute
     seconds.  Event timestamps are relative microseconds, so shifting a
     file by (epoch - min epoch) * 1e6 puts every process on one
     timeline.  Files forked from the coordinator share its epoch
     ({!Trace.stream_after_fork}) and shift by zero.
   - Output ordering: Chrome trace_event metadata ("M") events naming
     each process first, then all events sorted by rebased timestamp
     (stable within a file, so B/E nesting per pid survives). *)

type stats = {
  run : string option;
  files : int;
  events : int;
  skipped : int;
  mismatched : string list;
}

type source = {
  label : string;
  mutable epoch : float option;
  mutable sid : string option; (* run id announced in this file *)
  mutable first_pid : int option;
  mutable evs : (float * Json.t) list; (* (ts_us, event), reversed *)
  mutable torn : int;
}

(* one line of a stream-sink file: [None] for the array brackets and
   blank lines, else the event with its timestamp, pid and run
   announcement (id, epoch); raises [Json.Error] unless the line, less
   its separator comma, is one whole event *)
let event_of_line line =
  let line = String.trim line in
  let n = String.length line in
  let line =
    if n > 0 && line.[n - 1] = ',' then String.sub line 0 (n - 1) else line
  in
  if line = "" || line = "[" || line = "]" then None
  else
    let ev = Json.parse line in
    let arg k = Option.bind (Json.mem "args" ev) (Json.mem k) in
    let announce =
      if Json.mem "name" ev = Some (Json.Str "trace.run") then
        ( Option.map Json.to_str (arg "id"),
          Option.map Json.to_float (arg "epoch_s") )
      else (None, None)
    in
    Some
      ( Json.to_float (Json.field "ts" ev),
        Option.map Json.to_int (Json.mem "pid" ev),
        announce,
        ev )

let scan_source label text =
  let s =
    { label; epoch = None; sid = None; first_pid = None; evs = []; torn = 0 }
  in
  String.split_on_char '\n' text
  |> List.iter (fun raw ->
         match event_of_line raw with
         | exception Json.Error _ -> s.torn <- s.torn + 1
         | None -> ()
         | Some (ts, pid, (id, epoch), ev) ->
           if s.first_pid = None then s.first_pid <- pid;
           (* the LAST announce wins: a forked child re-announces
              whatever id it inherited, then the coordinator's hello
              reply installs the authoritative one *)
           if id <> None then s.sid <- id;
           if epoch <> None then s.epoch <- epoch;
           s.evs <- (ts, ev) :: s.evs);
  s.evs <- List.rev s.evs;
  s

(* the event with its ts member set to [ts] (already in µs) *)
let with_ts ev ts =
  match ev with
  | Json.Obj m ->
    Json.Obj
      (List.map (fun (k, v) -> (k, if k = "ts" then Json.fixed 3 ts else v)) m)
  | ev -> ev

let meta_event ~pid ~name args =
  Json.(
    Obj
      [ ("name", Str name); ("cat", Str "meta"); ("ph", Str "M");
        ("ts", int 0); ("pid", int pid); ("tid", int 0); ("args", Obj args) ])

let merge_files sources out =
  let parsed =
    List.filter_map
      (fun (label, path) ->
        match Json.read_file path with
        | text -> Some (scan_source label text)
        | exception _ -> None)
      sources
  in
  let epochs = List.filter_map (fun s -> s.epoch) parsed in
  let epoch0 = List.fold_left Float.min infinity epochs in
  let offset s =
    match s.epoch with
    | Some e when epoch0 <> infinity -> (e -. epoch0) *. 1e6
    | _ -> 0.0
  in
  (* run-id agreement: the first announced id is the candidate; files
     announcing a different id (or none) are reported, and a genuine
     conflict voids the merged id *)
  let candidate =
    List.fold_left
      (fun acc s -> match acc with None -> s.sid | some -> some)
      None parsed
  in
  let mismatched =
    List.filter_map
      (fun s -> if s.sid <> candidate then Some s.label else None)
      parsed
  in
  let conflict =
    List.exists (fun s -> s.sid <> None && s.sid <> candidate) parsed
  in
  let run = if conflict then None else candidate in
  (* collect rebased events; the sort key includes source and file order
     so equal timestamps keep their within-process order (B/E nesting) *)
  let all = ref [] in
  List.iteri
    (fun si s ->
      let off = offset s in
      List.iteri
        (fun li (ts, ev) ->
          let ts' = ts +. off in
          all := (ts', si, li, with_ts ev ts') :: !all)
        s.evs)
    parsed;
  let arr = Array.of_list !all in
  Array.sort
    (fun (a, sa, la, _) (b, sb, lb, _) ->
      let c = compare a b in
      if c <> 0 then c
      else
        let c = compare sa sb in
        if c <> 0 then c else compare la lb)
    arr;
  output_string out "[\n";
  let emitted = ref 0 in
  let emit ev =
    if !emitted > 0 then output_string out ",\n";
    output_string out (Json.to_line ev);
    incr emitted
  in
  List.iteri
    (fun si s ->
      match s.first_pid with
      | None -> ()
      | Some pid ->
        emit
          (meta_event ~pid ~name:"process_name" [ ("name", Json.Str s.label) ]);
        emit
          (meta_event ~pid ~name:"process_sort_index"
             [ ("sort_index", Json.int si) ]))
    parsed;
  Array.iter (fun (_, _, _, ev) -> emit ev) arr;
  output_string out "\n]\n";
  flush out;
  {
    run;
    files = List.length parsed;
    events = !emitted;
    skipped = List.fold_left (fun a s -> a + s.torn) 0 parsed;
    mismatched;
  }
