(** Set-associative cache model with true-LRU replacement and a
    write-allocate / write-back policy.  Used for both the L1D and L2
    levels of the simulated machine. *)

type config = {
  size_bytes : int;   (** total capacity; must be a multiple of the line *)
  assoc : int;        (** ways per set; must divide the line count *)
  line_bytes : int;   (** line size; must be a power of two *)
}

(** number of lines in a configuration *)
val lines : config -> int

(** number of sets in a configuration *)
val sets : config -> int

type t = {
  cfg : config;
  nsets : int;
  line_shift : int;  (** log2 of [cfg.line_bytes] *)
  set_mask : int;    (** [nsets - 1] when [nsets] is a power of two, else -1 *)
  set_shift : int;   (** log2 of [nsets] when it is a power of two *)
  ways : int array;
      (** per way, interleaved (tag, LRU stamp, dirty) triples — one
          set's state stays within a host cache line; tag -1 = invalid *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

(** validates the configuration; raises [Invalid_argument] otherwise *)
val check_config : config -> unit

(** fresh, empty cache.  Raises [Invalid_argument] on a bad config. *)
val make : config -> t

(** invalidate all lines and zero the statistics *)
val reset : t -> unit

type outcome = {
  hit : bool;
  writeback : int option;
      (** byte address of a dirty line displaced by this fill, if any;
          the next level must absorb it as write traffic *)
}

(** one access at a byte address; [write] marks the line dirty *)
val access : t -> addr:int -> write:bool -> outcome

(** {2 Allocation-free variant} — the per-event hot loops (the flat
    simulator's model and the trace replay) make one or two cache
    accesses per memory event, so the [outcome] record is measurable
    there. *)

(** result of {!access_fast} when the line was resident *)
val hit : int

(** result of {!access_fast} on a miss that displaced no dirty line *)
val miss : int

(** same state evolution as {!access}; returns {!hit}, {!miss}, or the
    (non-negative) writeback address of a displaced dirty line *)
val access_fast : t -> addr:int -> write:bool -> int

(** The miss path of {!access_fast} after a failed hit scan of [set]:
    replacement, writeback accounting, install of [tag]; returns
    {!miss} or the writeback address.  For callers that duplicate the
    hit scan in their own compilation unit (Flatsim's per-event probe —
    dev builds compile with [-opaque], so cross-module calls never
    inline); such a caller must bump [accesses]/[clock] itself exactly
    as {!access_fast} does before scanning. *)
val fill : t -> set:int -> tag:int -> write:bool -> int
