(** Persistent, content-addressed store of sequence-evaluation results.

    Keys are hex digests computed by {!Engine} from (IR digest, pass
    sequence, machine configuration, pass-set version); values are the
    measured cycles, code size and full performance-counter vector — or
    the recorded fact that the evaluation failed (trapped / diverged),
    so known-broken sequences are never re-simulated either.

    Persistence is a {!Dlog} of sealed lines ([results.log], header
    [mira-rescache 3], lock [cache.lock]), flushed on every write:
    checksums, quarantine, self-heal, atomic compaction, the lock and
    {!absorb} are that module's.  Every payload carries the digest of
    the compiled (post-pipeline) IR the measurement came from — the
    handle the engine's simulation-dedup layer keys on.  Legacy v1/v2
    logs carry no IR digest, so they cannot be promoted: every line is
    quarantined and the log rewritten as an empty v3 store (entries are
    re-measured on demand).

    A bounded LRU sits in front so an arbitrarily large log cannot
    exhaust memory; evicted entries are still on disk and reappear on
    reopen. *)

type entry =
  | Measured of {
      ir_digest : string;  (** hex digest of the compiled IR measured *)
      cycles : int;
      code_size : int;
      counters : int array;
    }
  | Failure of { ir_digest : string }
      (** trapped or diverged: cost is infinity, reproducibly *)

(** environmental failures of {!open_dir} and {!absorb}: the same
    exception as {!Dlog.Error} *)
exception Cache_error of string

type t

(** [open_dir dir] loads (or creates) the cache persisted under [dir],
    taking the single-writer lock.
    @raise Cache_error as documented above *)
val open_dir : ?mem_capacity:int -> string -> t

(** a purely in-memory cache (no directory, nothing persisted) *)
val in_memory : ?mem_capacity:int -> unit -> t

val find : t -> string -> entry option

(** Record (and persist) the entry for a key, replacing any older
    value.  A failed disk write (e.g. full disk) is counted in
    {!write_errors} and the entry kept in memory; it never raises.
    Consults the [flip-append], [torn-append] and [fail-append] fault
    points, in that order. *)
val add : t -> string -> entry -> unit

(** Rewrite the log as one checksummed line per live key (last-wins
    collapsed, corruption scrubbed), atomically ({!Dlog.compact}). *)
val compact : t -> unit

type absorb_stats = Dlog.absorb_stats = {
  absorbed : int;
  duplicates : int;
  rejected : int;
}

(** [absorb t donor_dir] imports the result log persisted under
    [donor_dir] into [t], such as a cache another process filled in
    its own directory.  Keys already in [t]'s resident set are skipped
    (results are content-addressed and deterministic, so a collision
    carries the same measurement); see {!Dlog.absorb}.
    @raise Cache_error if the donor is locked by a running process,
    unreadable, or not a result cache *)
val absorb : t -> string -> absorb_stats

(** entries currently resident in memory *)
val resident : t -> int

(** total entries ever loaded/added this session (monotone) *)
val known : t -> int

(** corrupt log lines dropped at replay this session *)
val quarantined : t -> int

(** disk appends that failed and were absorbed *)
val write_errors : t -> int

(** stale (dead-owner) locks broken at open *)
val stale_locks_broken : t -> int

(** release the lock and close the log *)
val close : t -> unit

(** {2 Line payloads}

    Exposed for tests that build logs by hand. *)

(** [seal_line payload] is [<sum>|<payload>] ({!Dlog.seal}) *)
val seal_line : string -> string

(** Parse (and semantically validate) a log-line payload.  Rejects, with
    a reason: unknown shapes (including digest-less v1/v2 lines), empty
    keys, malformed IR digests, non-decimal or negative cycles / code
    size / counter values, junk after the counter list. *)
val entry_of_line : string -> (string * entry, string) result

(** the inverse of {!entry_of_line} *)
val entry_to_line : string -> entry -> string
