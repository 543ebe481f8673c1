(** The durable log under {!Rcache}, {!Tstore} and {!Journal} (see
    DESIGN.md "Durable log").

    A log is a header line, then entries framed as sealed lines
    [<sum8>|<payload>\n] or as blobs
    [\nTSE1|<sum8>|<key32>|<len>\n<payload>\n], [<sum8>] being the first
    8 hex characters of the MD5 of a line's payload, or of a blob's key
    followed by its payload.  One scanner reads both.  An
    entry whose frame, checksum or [spec.parse] fails is quarantined:
    counted and dropped, never fatal; after a damaged blob the scan
    resumes behind its marker line.  The last entry for a key wins.  An
    open that quarantined anything rewrites the log clean, atomically.
    Counters and spans are named [<spec.name>.*], in category
    [spec.name]. *)

(** environmental failures: a directory that cannot be created or used,
    a file that is not this store's, a lock held by a live process *)
exception Error of string

(** what {!absorb} did: donor keys imported, donor keys the recipient
    already held (left untouched), donor entries that failed to
    validate *)
type absorb_stats = { absorbed : int; duplicates : int; rejected : int }

(** what a header line says about the entries behind it *)
type header =
  | Current  (** replay them *)
  | Legacy  (** an older format: quarantine every one *)
  | Torn  (** a header cut off at creation: quarantined once *)
  | Stale  (** skip them: the log restarts empty *)

(** what the caller's fault points do to one append: [flip] one bit in
    its middle, [tear] it off halfway with no terminator, [fail] the
    write with an exception *)
type damage = { flip : bool; tear : bool; fail : bool }

val intact : damage

(** A store's schema.  [parse marker payload] validates an entry, given
    a blob's marker key ([None] for a sealed line): its key and value,
    or [None] to quarantine it.  [print key value] is the payload;
    [blob] picks the frame the store writes. *)
type 'v spec = {
  name : string;  (** metric prefix and span category *)
  noun : string;  (** the store in error texts *)
  file : string;  (** the log's name in a store directory *)
  lock : string;  (** the lock's name in a store directory *)
  magic : string;  (** the header line *)
  legacy : string list;  (** older headers, read as {!Legacy} *)
  blob : bool;
  parse : string option -> string -> (string * 'v) option;
  print : string -> 'v -> string;
}

type 'v t

(** [seal payload] is [<sum8>|<payload>] *)
val seal : string -> string

(** a non-empty string of decimal digits *)
val dec : string -> bool

(** [hex n s]: [s] is [n] lowercase hex digits *)
val hex : int -> string -> bool

(** [scan spec path ~header ~bad f]: [header] judges the first line,
    then [f key value off] runs for each valid entry in file order
    ([off] is the payload's offset) and [bad ()] once per damaged one.
    Returns the verdict, [None] for an empty file.
    @raise Sys_error if [path] cannot be read *)
val scan :
  'v spec ->
  string ->
  header:(string -> header) ->
  bad:(unit -> unit) ->
  (string -> 'v -> int -> unit) ->
  header option

(** [open_file spec path ~header ~load] replays the log at [path] into
    [load], quarantining damaged entries, heals it and opens it for
    appends (a missing or empty log gets [spec.magic]).  Takes no
    lock. *)
val open_file :
  'v spec ->
  string ->
  header:(string -> header) ->
  load:(string -> 'v -> int -> unit) ->
  'v t

(** [open_dir spec dir ~load ~entries]: {!open_file} on
    [dir/spec.file] under the pid lock [dir/spec.lock], creating [dir]
    if needed, in a [<name>.open] span that ends with [entries ()].  The
    header must be [spec.magic], a legacy one or a prefix of [magic].
    A dead owner's lock is broken and counted (the [stale-lock] fault
    point plants one).
    @raise Error if [dir] is not a directory, the log not this store's,
    or the lock held by a live process *)
val open_dir :
  'v spec ->
  string ->
  load:(string -> 'v -> int -> unit) ->
  entries:(unit -> int) ->
  'v t

(** [append log key value damage] writes one entry and flushes it;
    [damage] is consulted only while the log is open.  The payload's
    offset, or [None] if the entry is not whole on disk.  A failed write
    is counted, never raised; the entry after a torn or failed one
    starts on a fresh line. *)
val append : 'v t -> string -> 'v -> (unit -> damage) -> int option

(** rewrite the log as the last valid entry per key: a temporary file
    renamed over the log, so the [compact-crash] fault point, fired
    before the rename, leaves it intact *)
val compact : 'v t -> unit

(** [absorb spec ~mem ~add ~compact donor] merges, read-only, the log
    of the store directory [donor]: its last valid entry per key is
    [add]ed unless [mem] holds the key, and [compact] runs if anything
    was.  A missing donor is an empty merge.
    @raise Error if the donor is not a directory, not this store's, or
    locked by a live process *)
val absorb :
  'v spec ->
  mem:(string -> bool) ->
  add:(string -> 'v -> unit) ->
  compact:(unit -> unit) ->
  string ->
  absorb_stats

(** count an entry found damaged after the open *)
val quarantine : 'v t -> unit

val path : 'v t -> string
val quarantined : 'v t -> int
val write_errors : 'v t -> int
val stale_locks_broken : 'v t -> int

(** close the log and release the lock; later appends write nothing *)
val close : 'v t -> unit
