(** Persistent on-disk trace store: the durable tier below {!Tcache}
    (see DESIGN.md "Trace store").

    A {!Dlog} of blobs ([store.log], header [mira-tstore 2], lock
    [tstore.lock]) holds {!Mach.Mtrace.encode}d traces keyed by
    (compiled-IR digest, fuel) — the same config-free identity {!Tcache}
    uses — so a warm store lets every later run replay architecture
    grids without executing program semantics again.  Checksums (each over a blob's key and payload),
    quarantine, self-heal, atomic compaction, the lock and {!absorb} are
    {!Dlog}'s.  A log in format 1 ([mira-tstore 1]) opens with every
    entry quarantined and is rewritten in format 2.

    Fault-injection point consulted (see {!Faults}): ["tstore-write"]
    (a torn entry append). *)

type t

(** environmental failures: the same exception as {!Dlog.Error} and
    {!Rcache.Cache_error} *)
exception Store_error of string

(** Open (creating if needed) the store in [dir], replaying and
    checksum-validating its log.  Quarantines corrupt entries and
    self-heals the log; raises {!Store_error} on a lock held by a live
    process or a non-store file. *)
val open_dir : string -> t

(** [find] decodes the stored trace for the key, or [None]; an
    undecodable (yet checksum-valid) entry is dropped and counted as
    quarantined rather than raising. *)
val find : t -> ir_digest:string -> fuel:int -> Mach.Mtrace.t option

val mem : t -> ir_digest:string -> fuel:int -> bool

(** [add] encodes and appends the trace; a no-op if the key is already
    stored (traces are deterministic per key).  Write failures degrade
    to memory-only (counted), they never kill the run. *)
val add : t -> ir_digest:string -> fuel:int -> Mach.Mtrace.t -> unit

(** atomically rewrite the log: one entry per key, corruption
    scrubbed *)
val compact : t -> unit

type absorb_stats = Dlog.absorb_stats = {
  absorbed : int;
  duplicates : int;
  rejected : int;
}

(** [absorb t donor_dir] merges the donor store's entries into [t];
    keys [t] already holds are left untouched ([duplicates]).  See
    {!Dlog.absorb}. *)
val absorb : t -> string -> absorb_stats

val entries : t -> int
val quarantined : t -> int
val write_errors : t -> int
val stale_locks_broken : t -> int
val hits : t -> int
val misses : t -> int

val bytes_on_disk : t -> int
(** current size of the log file *)

val payload_bytes : t -> int
(** summed encoded size of the live entries (excludes framing) *)

(** close the log and release the lock (entries already on disk stay) *)
val close : t -> unit
