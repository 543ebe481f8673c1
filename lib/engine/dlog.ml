(* The durable log under Rcache, Tstore and Journal (see dlog.mli and
   DESIGN.md "Durable log").  One append-only file per store: a header
   line, then entries framed as sealed lines or as blobs,

     <sum8>|<payload>\n
     \nTSE1|<sum8>|<key32>|<len>\n<len payload bytes>\n

   with <sum8> the first 8 hex chars of MD5(payload) for a line, and of
   MD5(<key32> ^ payload) for a blob, so that damage to a blob's key
   quarantines it instead of filing it under another key. *)

exception Error of string

type absorb_stats = { absorbed : int; duplicates : int; rejected : int }
type header = Current | Legacy | Torn | Stale
type damage = { flip : bool; tear : bool; fail : bool }

let intact = { flip = false; tear = false; fail = false }

type 'v spec = {
  name : string;
  noun : string;
  file : string;
  lock : string;
  magic : string;
  legacy : string list;
  blob : bool;
  parse : string option -> string -> (string * 'v) option;
  print : string -> 'v -> string;
}

type 'v t = {
  spec : 'v spec;
  path : string;
  mutable dir : string option; (* the directory whose lock we hold *)
  mutable oc : out_channel option;
  mutable torn : bool; (* the last append may have left a partial entry *)
  mutable quarantined : int;
  mutable write_errors : int;
  mutable stale_locks : int;
}

(* observability: every store's <name>.* family *)
let count spec what n =
  Obs.Metrics.incr ~by:n (Obs.Metrics.counter (spec.name ^ "." ^ what))

let note spec what event =
  count spec what 1;
  Obs.Trace.instant ~cat:spec.name (spec.name ^ "." ^ event)

let quarantine log =
  log.quarantined <- log.quarantined + 1;
  note log.spec "quarantined" "quarantine"

(* ------------------------------------------------------------------ *)
(* framing *)

let checksum payload = String.sub (Digest.to_hex (Digest.string payload)) 0 8
let seal payload = checksum payload ^ "|" ^ payload

(* a blob's checksum covers its key as well as its payload *)
let blob_sum k payload = checksum (k ^ payload)

let unseal line =
  if String.length line >= 9 && line.[8] = '|' then
    let payload = String.sub line 9 (String.length line - 9) in
    if String.equal (String.sub line 0 8) (checksum payload) then Some payload
    else None
  else None

let dec s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let hex n s =
  String.length s = n
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let marker line =
  if not (String.starts_with ~prefix:"TSE1|" line) then None
  else
    match String.split_on_char '|' line with
    | [ _; sum; k; len ] when hex 8 sum && hex 32 k && dec len ->
      Option.map (fun len -> (sum, k, len)) (int_of_string_opt len)
    | _ -> None

(* an entry on disk is [head ^ body ^ "\n"]; a tear cuts [body] in half *)
let frame spec k v =
  let payload = spec.print k v in
  if spec.blob then
    ( Printf.sprintf "\nTSE1|%s|%s|%d\n" (blob_sum k payload) k
        (String.length payload),
      payload )
  else ("", seal payload)

(* ------------------------------------------------------------------ *)
(* scanning *)

(* After a damaged blob the scan resumes just behind its marker line and
   skips, uncounted, the residue of the payload up to the next valid
   entry: a torn blob must not swallow the entry written after it.  In a
   log of blobs any unframed line is such residue; in a log of lines,
   each is an entry of its own. *)
let entries spec ic ~parse ~bad f =
  let size = in_channel_length ic in
  let skipping = ref false in
  let accept k payload off =
    match parse k payload with
    | Some (key, v) ->
      skipping := false;
      f key v off
    | None -> bad ()
  in
  try
    while true do
      let start = pos_in ic in
      let line = input_line ic in
      if line <> "" then
        match marker line with
        | Some (sum, k, len) -> (
          let off = pos_in ic in
          let payload =
            if len >= size - off then None
            else
              let p = really_input_string ic len in
              if input_char ic = '\n' && String.equal (blob_sum k p) sum
              then Some p
              else None
          in
          match payload with
          | Some p -> accept (Some k) p off
          | None ->
            bad ();
            skipping := true;
            seek_in ic off)
        | None -> (
          match unseal line with
          | Some p -> accept None p (start + 9)
          | None ->
            if not !skipping then begin
              bad ();
              skipping := spec.blob
            end)
    done
  with End_of_file -> ()

let scan spec path ~header ~bad f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  match input_line ic with
  | exception End_of_file -> None
  | h ->
    let verdict = header h in
    let parse = spec.parse in
    (match verdict with
     | Stale -> ()
     | Legacy -> entries spec ic ~parse:(fun _ _ -> None) ~bad f
     | Torn ->
       bad ();
       entries spec ic ~parse ~bad f
     | Current -> entries spec ic ~parse ~bad f);
    Some verdict

(* the header policy of a store kept in a directory *)
let standard spec path h =
  if h = spec.magic then Current
  else if List.mem h spec.legacy then Legacy
  else if
    String.length h < String.length spec.magic
    && String.starts_with ~prefix:h spec.magic
  then Torn
  else
    raise
      (Error (Printf.sprintf "%s: not a %s (bad header %S)" path spec.noun h))

(* the last valid entry per key, in first-seen key order *)
let latest spec path ~header ~bad =
  let order = ref [] and last = Hashtbl.create 64 in
  ignore
    (scan spec path ~header ~bad (fun k v _ ->
         if not (Hashtbl.mem last k) then order := k :: !order;
         Hashtbl.replace last k v));
  List.rev_map (fun k -> (k, Hashtbl.find last k)) !order

(* ------------------------------------------------------------------ *)
(* rewriting *)

let open_append path =
  open_out_gen [ Open_append; Open_creat; Open_wronly; Open_binary ] 0o644
    path

(* Atomic: the clean log is written beside the old one and renamed over
   it, so a crash before the rename leaves the old log as it was. *)
let rewrite log =
  let spec = log.spec in
  let keep =
    latest spec log.path ~bad:ignore ~header:(fun h ->
        if List.mem h spec.legacy then Legacy else Current)
  in
  let tmp = Printf.sprintf "%s.tmp.%d" log.path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  output_string oc (spec.magic ^ "\n");
  List.iter
    (fun (k, v) ->
      let head, body = frame spec k v in
      output_string oc head;
      output_string oc body;
      output_char oc '\n')
    keep;
  close_out oc;
  if Faults.fires "compact-crash" then begin
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Faults.Injected "compact-crash")
  end;
  Sys.rename tmp log.path;
  log.torn <- false

let compact log =
  match log.oc with
  | None -> ()
  | Some oc ->
    count log.spec "compactions" 1;
    Obs.Trace.with_span ~cat:log.spec.name (log.spec.name ^ ".compact")
    @@ fun () ->
    (* close before rename so no buffered bytes chase the old inode *)
    flush oc;
    close_out_noerr oc;
    log.oc <- None;
    Fun.protect
      ~finally:(fun () -> log.oc <- Some (open_append log.path))
      (fun () -> rewrite log)

(* ------------------------------------------------------------------ *)
(* the single-writer advisory lock *)

let pid_alive pid =
  pid > 0
  &&
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true (* EPERM and friends: someone is there *)

(* the pid a lock file names; a malformed one names a dead owner *)
let lock_owner path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let s = really_input_string ic (min 64 (in_channel_length ic)) in
    let s = String.trim s in
    Some (if dec s then Option.value ~default:(-1) (int_of_string_opt s)
          else -1)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* the number of dead owners' locks broken: 0 or 1 *)
let lock spec dir =
  let path = Filename.concat dir spec.lock in
  if Faults.fires "stale-lock" then write_file path "0" (* a dead owner's *);
  let stale =
    match lock_owner path with
    | Some owner when owner <> Unix.getpid () ->
      if pid_alive owner then
        raise
          (Error
             (Printf.sprintf
                "%s: %s is in use by running process %d (remove the lock \
                 file if that process is gone)"
                path spec.noun owner));
      (try Sys.remove path with Sys_error _ -> ());
      note spec "stale_locks_broken" "stale-lock-broken";
      1
    | _ -> 0
  in
  write_file path (string_of_int (Unix.getpid ()));
  stale

let unlock spec dir =
  let path = Filename.concat dir spec.lock in
  match lock_owner path with
  | Some owner when owner = Unix.getpid () -> (
    try Sys.remove path with Sys_error _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* opening *)

let open_file spec path ~header ~load =
  let log =
    { spec; path; dir = None; oc = None; torn = false; quarantined = 0;
      write_errors = 0; stale_locks = 0 }
  in
  let verdict =
    if not (Sys.file_exists path) then None
    else
      try scan spec path ~header ~bad:(fun () -> quarantine log) load
      with Sys_error e -> raise (Error ("cannot open log: " ^ e))
  in
  (* self-heal: the rewrite also ends a torn tail, so later appends
     cannot glue onto it *)
  (match verdict with
   | Some Stale -> Sys.remove path
   | Some Legacy -> rewrite log
   | _ -> if log.quarantined > 0 then rewrite log);
  let oc = open_append path in
  if out_channel_length oc = 0 then begin
    output_string oc (spec.magic ^ "\n");
    flush oc
  end;
  log.oc <- Some oc;
  log

let open_dir spec dir ~load ~entries =
  Obs.span_with ~cat:spec.name (spec.name ^ ".open")
    ~end_args:(fun log ->
      [
        ("entries", Obs.Trace.Int (entries ()));
        ("quarantined", Obs.Trace.Int log.quarantined);
      ])
  @@ fun () ->
  if not (Sys.file_exists dir) then (
    try Sys.mkdir dir 0o755
    with Sys_error e ->
      raise
        (Error (Printf.sprintf "cannot create %s directory: %s" spec.noun e)))
  else if not (Sys.is_directory dir) then
    raise (Error (dir ^ ": not a directory"));
  let path = Filename.concat dir spec.file in
  let stale = lock spec dir in
  match open_file spec path ~header:(standard spec path) ~load with
  | log ->
    log.dir <- Some dir;
    log.stale_locks <- stale;
    log
  | exception e ->
    unlock spec dir;
    raise e

(* ------------------------------------------------------------------ *)
(* appending *)

let append log k v damage =
  match log.oc with
  | None -> None
  | Some oc -> (
    match
      let d = damage () in
      let head, body = frame log.spec k v in
      (* after a tear, start on a fresh line so nothing glues onto it *)
      let head = if log.torn then "\n" ^ head else head in
      let body =
        if not d.flip then body
        else
          let b = Bytes.of_string body and i = String.length body / 2 in
          Bytes.set b i (Char.chr (Char.code body.[i] lxor 1));
          Bytes.to_string b
      in
      let off = out_channel_length oc + String.length head in
      output_string oc head;
      if d.tear then output_substring oc body 0 (String.length body / 2)
      else if not d.fail then begin
        output_string oc body;
        output_char oc '\n'
      end;
      flush oc;
      if d.fail then raise (Faults.Injected "append");
      log.torn <- d.tear;
      if d.tear then None else Some off
    with
    | written -> written
    | exception _ ->
      log.torn <- true;
      log.write_errors <- log.write_errors + 1;
      note log.spec "write_errors" "write-error";
      None)

(* ------------------------------------------------------------------ *)
(* absorbing another store's log *)

let absorb spec ~mem ~add ~compact donor =
  Obs.span_with ~cat:spec.name (spec.name ^ ".absorb")
    ~end_args:(fun s ->
      [
        ("absorbed", Obs.Trace.Int s.absorbed);
        ("duplicates", Obs.Trace.Int s.duplicates);
        ("rejected", Obs.Trace.Int s.rejected);
      ])
  @@ fun () ->
  let path = Filename.concat donor spec.file in
  if Sys.file_exists donor && not (Sys.is_directory donor) then
    raise (Error (donor ^ ": not a directory"));
  (* a donor a live process still writes is refused; a lock left by a
     dead worker is the expected case and does not block the merge *)
  (match lock_owner (Filename.concat donor spec.lock) with
   | Some owner when owner <> Unix.getpid () && pid_alive owner ->
     raise
       (Error
          (Printf.sprintf "%s: donor %s is in use by running process %d"
             donor spec.noun owner))
   | _ -> ());
  let rejected = ref 0 and absorbed = ref 0 and duplicates = ref 0 in
  if Sys.file_exists path then begin
    let donated =
      try
        latest spec path ~header:(standard spec path) ~bad:(fun () ->
            incr rejected)
      with Sys_error e -> raise (Error ("cannot open donor log: " ^ e))
    in
    List.iter
      (fun (k, v) ->
        if mem k then incr duplicates
        else begin
          add k v;
          incr absorbed
        end)
      donated;
    if !absorbed > 0 then compact ()
  end;
  count spec "absorbed" !absorbed;
  count spec "absorb_duplicates" !duplicates;
  count spec "absorb_rejected" !rejected;
  { absorbed = !absorbed; duplicates = !duplicates; rejected = !rejected }

(* ------------------------------------------------------------------ *)

let path log = log.path
let quarantined log = log.quarantined
let write_errors log = log.write_errors
let stale_locks_broken log = log.stale_locks

let close log =
  Option.iter (fun oc -> try close_out oc with Sys_error _ -> ()) log.oc;
  log.oc <- None;
  Option.iter (unlock log.spec) log.dir
