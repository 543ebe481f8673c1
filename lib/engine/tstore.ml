(* Persistent on-disk trace store: the cross-run tier below
   Engine.Tcache (see DESIGN.md "Trace store").  A durable log of
   blobs (store.log, header "mira-tstore 2", see Dlog) keyed by <key32>,
   the MD5 hex of (compiled-IR digest, fuel) — the identity Tcache keys
   on, hashed so the marker line needs no quoting.  Each blob's checksum
   covers its key and its payload.  The payload is Mtrace.encode's
   varint/delta form, so a trace costs two to four bytes per stream
   word instead of the in-memory array's eight; memory holds only each
   payload's offset.  A format-1 log (payload-only checksums, an older
   codec) is read as legacy: every entry is quarantined at open and the
   log rewritten empty.

   Injection point consulted here (see Faults): tstore-write, on each
   append; Dlog adds stale-lock and compact-crash. *)

module Mtrace = Mach.Mtrace

exception Store_error = Dlog.Error

type absorb_stats = Dlog.absorb_stats = {
  absorbed : int;
  duplicates : int;
  rejected : int;
}

type loc = { off : int; len : int }

type t = {
  index : (string, loc) Hashtbl.t; (* key32 -> payload location *)
  log : string Dlog.t;
  mutable hits : int;
  mutable misses : int;
}

let m_hits = Obs.Metrics.counter "tstore.hits"
let m_misses = Obs.Metrics.counter "tstore.misses"
let m_adds = Obs.Metrics.counter "tstore.adds"

let bytes_per_word =
  Obs.Metrics.histogram ~unit_:"B/word" "tstore.bytes_per_word"

let key ~ir_digest ~fuel =
  Digest.to_hex (Digest.string (ir_digest ^ "\x00" ^ string_of_int fuel))

let spec =
  {
    Dlog.name = "tstore";
    noun = "trace store";
    file = "store.log";
    lock = "tstore.lock";
    magic = "mira-tstore 2";
    legacy = [ "mira-tstore 1" ];
    blob = true;
    parse = (fun marker payload -> Option.map (fun k -> (k, payload)) marker);
    print = (fun _ payload -> payload);
  }

let record index k payload off =
  Hashtbl.replace index k { off; len = String.length payload }

(* a rewrite moves every payload: re-read the offsets from the clean log *)
let reindex t =
  Hashtbl.reset t.index;
  ignore
    (Dlog.scan spec (Dlog.path t.log) ~bad:ignore
       ~header:(fun _ -> Dlog.Current)
       (record t.index))

let open_dir dir =
  let index = Hashtbl.create 64 in
  let log =
    Dlog.open_dir spec dir ~load:(record index) ~entries:(fun () ->
        Hashtbl.length index)
  in
  let t = { index; log; hits = 0; misses = 0 } in
  (* an open that quarantined anything has rewritten the log *)
  if Dlog.quarantined log > 0 then reindex t;
  t

(* ------------------------------------------------------------------ *)
(* reading entries *)

let read_payload t loc =
  let ic = open_in_bin (Dlog.path t.log) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic loc.off;
      really_input_string ic loc.len)

let miss t =
  t.misses <- t.misses + 1;
  Obs.Metrics.incr m_misses;
  None

let find t ~ir_digest ~fuel =
  let k = key ~ir_digest ~fuel in
  match Hashtbl.find_opt t.index k with
  | None -> miss t
  | Some loc -> (
    let corrupt () =
      (* checksum-valid but undecodable (or unreadable): drop it and
         let the caller regenerate; the log heals at the next open *)
      Hashtbl.remove t.index k;
      Dlog.quarantine t.log;
      miss t
    in
    match Mtrace.decode (read_payload t loc) with
    | Ok tr ->
      t.hits <- t.hits + 1;
      Obs.Metrics.incr m_hits;
      Some tr
    | Error _ -> corrupt ()
    | exception (Sys_error _ | End_of_file) -> corrupt ())

let mem t ~ir_digest ~fuel = Hashtbl.mem t.index (key ~ir_digest ~fuel)

(* ------------------------------------------------------------------ *)
(* writing *)

let append t k payload =
  match
    Dlog.append t.log k payload (fun () ->
        { Dlog.intact with tear = Faults.fires "tstore-write" })
  with
  | Some off -> record t.index k payload off
  | None -> () (* torn or failed: the entry is lost; the next open heals *)

let add t ~ir_digest ~fuel tr =
  let k = key ~ir_digest ~fuel in
  (* traces are deterministic per key: re-adding would only duplicate *)
  if not (Hashtbl.mem t.index k) then begin
    let payload = Mtrace.encode tr in
    Obs.Metrics.incr m_adds;
    Obs.Metrics.observe bytes_per_word
      (float_of_int (String.length payload)
      /. float_of_int (max 1 tr.Mtrace.n));
    append t k payload
  end

let compact t =
  Fun.protect ~finally:(fun () -> reindex t) (fun () -> Dlog.compact t.log)

let absorb t donor =
  Dlog.absorb spec ~mem:(Hashtbl.mem t.index) ~add:(append t)
    ~compact:(fun () -> compact t)
    donor

(* ------------------------------------------------------------------ *)

let entries t = Hashtbl.length t.index
let quarantined t = Dlog.quarantined t.log
let write_errors t = Dlog.write_errors t.log
let stale_locks_broken t = Dlog.stale_locks_broken t.log
let hits t = t.hits
let misses t = t.misses

let bytes_on_disk t =
  try (Unix.stat (Dlog.path t.log)).Unix.st_size with Unix.Unix_error _ -> 0

let payload_bytes t =
  Hashtbl.fold (fun _ loc acc -> acc + loc.len) t.index 0

let close t = Dlog.close t.log
