(* Chunked sweep journal: "chunks k of this sweep are done, with these
   costs" as sealed lines in a durable log (see Dlog).  Costs are printed
   as %h hex floats (lossless round-trip, including infinity), so a
   resumed sweep reproduces an uninterrupted one bit for bit.

   Format 2 puts the chunk total next to the key in the header
   (mira-journal 2|<key>|<total>).  A v1 journal has no total; it is
   discarded like any other stale journal. *)

let magic = "mira-journal 2"

(* observability: checkpoint lifecycle.  Chunks replayed from disk vs
   evaluated fresh tell a resume-vs-cold story in one table; each fresh
   chunk is a span so sweeps read as a sequence of checkpoints in the
   trace.  Discarded journals (stale key, alien file) are counted and
   warned about, since a discard means a sweep someone checkpointed is
   about to be recomputed. *)
let m_recorded = Obs.Metrics.counter "journal.chunks_recorded"
let m_reused = Obs.Metrics.counter "journal.chunks_reused"
let m_discarded = Obs.Metrics.counter "journal.discarded"
let chunk_ms = Obs.Metrics.histogram "journal.chunk_ms"

type t = {
  chunks : (int, float array) Hashtbl.t;
  log : (int * float array) Dlog.t;
}

let header_of ~key ~total = Printf.sprintf "%s|%s|%d" magic key total

(* is [line] a header [header_of] could have written, for any sweep?
   The key is '|'-free hex in practice, but parse from both ends *)
let is_header line =
  String.starts_with ~prefix:(magic ^ "|") line
  &&
  let rest = String.sub line (String.length magic + 1)
      (String.length line - String.length magic - 1)
  in
  match String.rindex_opt rest '|' with
  | None -> false
  | Some i ->
    i > 0 && Dlog.dec (String.sub rest (i + 1) (String.length rest - i - 1))

let payload_of_chunk idx costs =
  Printf.sprintf "chunk|%d|%s" idx
    (String.concat ","
       (List.map (Printf.sprintf "%h") (Array.to_list costs)))

let chunk_of_payload payload =
  match String.split_on_char '|' payload with
  | [ "chunk"; idx; costs ] when Dlog.dec idx -> (
    match
      ( int_of_string idx,
        if costs = "" then [||]
        else
          Array.of_list
            (List.map float_of_string (String.split_on_char ',' costs)) )
    with
    | idx, costs -> Some (string_of_int idx, (idx, costs))
    | exception _ -> None)
  | _ -> None

(* a journal is opened by path, without a lock: [file] and [lock] are
   unused, and [magic] is replaced by the sweep's own header *)
let spec =
  {
    Dlog.name = "journal";
    noun = "sweep journal";
    file = "";
    lock = "";
    magic;
    legacy = [];
    blob = false;
    parse =
      (fun marker payload ->
        if marker = None then chunk_of_payload payload else None);
    print = (fun _ (idx, costs) -> payload_of_chunk idx costs);
  }

(* a stale or alien journal is never resumed — but it is not discarded
   in silence: the warning names the file so an operator can tell
   "fresh experiment" from "I pointed two different sweeps at the same
   journal path" *)
let note_discarded ~path ~why =
  Obs.Metrics.incr m_discarded;
  Obs.Trace.instant ~cat:"journal" "journal.discarded";
  Printf.eprintf "journal: discarding %s (%s); the sweep restarts from \
                  scratch\n%!"
    path why

let open_ ~path ~key ~total =
  let header = header_of ~key ~total in
  let chunks = Hashtbl.create 64 in
  let log =
    Dlog.open_file { spec with magic = header } path
      ~header:(fun h ->
        if h = header then Dlog.Current
        else begin
          note_discarded ~path
            ~why:
              (if is_header h then "journal for a different sweep"
               else "not a sweep journal");
          Dlog.Stale
        end)
      ~load:(fun _ (idx, costs) _ -> Hashtbl.replace chunks idx costs)
  in
  { chunks; log }

let find t idx = Hashtbl.find_opt t.chunks idx

let record t idx costs =
  Hashtbl.replace t.chunks idx costs;
  ignore
    (Dlog.append t.log (string_of_int idx) (idx, costs) (fun () ->
         { Dlog.intact with tear = Faults.fires ~index:idx "sweep-torn" }))

let quarantined t = Dlog.quarantined t.log
let close t = Dlog.close t.log

let run ~path ~key ~chunk_size ~n eval =
  if chunk_size <= 0 then invalid_arg "Journal.run: chunk_size must be > 0";
  if n < 0 then invalid_arg "Journal.run: n must be >= 0";
  (* the chunking parameters are part of the identity of the sweep *)
  let key =
    Digest.to_hex
      (Digest.string (Printf.sprintf "%s\x00%d\x00%d" key chunk_size n))
  in
  let nchunks = (n + chunk_size - 1) / chunk_size in
  let t = open_ ~path ~key ~total:nchunks in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      let out = Array.make n nan in
      for c = 0 to nchunks - 1 do
        let lo = c * chunk_size in
        let hi = min n (lo + chunk_size) in
        let costs =
          match find t c with
          | Some costs when Array.length costs = hi - lo ->
            Obs.Metrics.incr m_reused;
            Obs.Trace.instant ~cat:"journal"
              ~args:[ ("chunk", Obs.Trace.Int c) ]
              "journal.chunk-reused";
            costs
          | _ ->
            let costs =
              Obs.span_with ~cat:"journal" ~hist:chunk_ms "journal.chunk"
                ~end_args:(fun _ ->
                  [ ("chunk", Obs.Trace.Int c); ("lo", Obs.Trace.Int lo);
                    ("hi", Obs.Trace.Int hi) ])
                (fun () -> eval lo hi)
            in
            if Array.length costs <> hi - lo then
              invalid_arg "Journal.run: eval returned the wrong length";
            record t c costs;
            Obs.Metrics.incr m_recorded;
            (* simulate kill -9 between chunks, for the resume tests *)
            if Faults.fires ~index:c "sweep-crash" then Unix._exit 21;
            costs
        in
        Array.blit costs 0 out lo (hi - lo)
      done;
      out)
