(** Crash-safe progress journal for long evaluation sweeps.

    A sweep over [n] items is cut into fixed-size chunks; as each chunk
    of costs is computed it is appended to a journal file, a {!Dlog} of
    sealed lines (header [mira-journal 2|<key>|<total-chunks>], payloads
    [chunk|<index>|<costs>], costs as lossless [%h] hex floats).  A run
    that is killed — power cut, OOM, ^C — leaves at worst one torn
    line; resuming replays the valid chunks, quarantines anything torn
    (healing the file atomically), recomputes only what is missing, and
    returns results byte-identical to an uninterrupted run.

    The [key] names the sweep's inputs (program, configuration,
    sequence list, chunking); a journal written under a different key
    is discarded rather than resumed, so stale progress can never leak
    into a changed experiment.  A discard is counted in the
    [journal.discarded] metric and warned about on stderr — it means a
    checkpoint someone paid for is about to be recomputed. *)

type t

(** [open_ ~path ~key ~total] replays (or creates) the journal at
    [path] for a sweep of [total] chunks.  An existing file with a
    different key or total, or an alien header, is discarded (with a
    warning and a [journal.discarded] metric tick) and started fresh. *)
val open_ : path:string -> key:string -> total:int -> t

(** the chunk's recorded costs, if validly journaled *)
val find : t -> int -> float array option

(** journal a chunk (checksummed append, flushed; a failed write is
    counted, not raised); last record wins.  Consults the [sweep-torn]
    fault point (occurrence = chunk index). *)
val record : t -> int -> float array -> unit

(** torn/corrupt lines dropped at replay *)
val quarantined : t -> int

val close : t -> unit

(** [run ~path ~key ~chunk_size ~n eval] — the checkpointed sweep
    driver.  Computes [eval lo hi] (costs of items [lo..hi-1], in
    order) for every chunk not already journaled under [key] at [path],
    journaling each as it completes, and returns all [n] costs.  The
    header holds [key] folded with [chunk_size] and [n] (as an MD5 hex
    digest), so a change to the chunking discards the journal too.
    After journaling a chunk it consults the [sweep-crash] fault point
    (occurrence = chunk index) and [_exit]s — simulating [kill -9] —
    when it fires.
    @raise Invalid_argument if [chunk_size <= 0], [n < 0], or [eval]
    returns the wrong number of costs *)
val run :
  path:string ->
  key:string ->
  chunk_size:int ->
  n:int ->
  (int -> int -> float array) ->
  float array
