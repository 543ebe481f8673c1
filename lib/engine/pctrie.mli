(** The pass-compilation trie: a memo table over single pass
    applications, keyed by (input-IR digest, pass).

    A sequence sweep walks a trie whose nodes are IR states and whose
    edges are passes; evaluating 88k sequences naively re-applies every
    shared prefix once per sequence.  This table collapses that walk:
    [apply] returns the memoized (result, result digest) when the same
    pass was already applied to an IR with the same printed form, so
    each distinct (state, pass) edge is compiled exactly once.

    Soundness rests on passes being deterministic functions of the
    program value.  The printed IR alone is NOT that value: the
    printer omits each function's fresh-name counters
    ([nregs]/[nlabels], read by passes that mint fresh registers or
    labels), each global's element type and initializers ([gelt] is
    rewritten by the packing pass based on [ginit]), and the program's
    [main] — two states printing identically can diverge downstream.
    [digest] therefore hashes the printed IR together with all of that
    hidden state; with that, the digest determines pass behaviour and
    the memoized program behaves identically under every later pass
    and the simulator as the one [Passes.Pass.apply] would have
    rebuilt.

    Materialized IRs are the memory cost, so a bounded LRU (same
    touch/stamp discipline as {!Rcache}) caps residency; an evicted
    edge is simply recompiled on the next walk.  Hits, misses and
    evictions are counted per trie and mirrored into the metrics
    registry as [engine.trie_*]. *)

type t

val default_capacity : int

(** [create ()] builds an empty trie holding at most [capacity]
    memoized results (default {!default_capacity}). *)
val create : ?capacity:int -> unit -> t

(** hex MD5 of a program's printed IR plus the printer-omitted state
    (fresh-name counters, global element types and initializers,
    [main]) — the node identity.  (Engine's [ir_digest] is this
    function.)  The initializers hashed are the written ones
    ([Ir.global.ginit]); the zero tail up to each printed size is
    implicit, so a digest costs what the source wrote, not what its
    arrays hold. *)
val digest : Mira.Ir.program -> string

(** [apply t p ~digest pass] is [Passes.Pass.apply pass p] together
    with the result's digest, memoized.  [digest] must be [digest p]. *)
val apply :
  t -> Mira.Ir.program -> digest:string -> Passes.Pass.t ->
  Mira.Ir.program * string

(** left-to-right [apply] over a sequence: one trie edge per pass *)
val apply_sequence :
  t -> Mira.Ir.program -> digest:string -> Passes.Pass.t list ->
  Mira.Ir.program * string

val hits : t -> int
val misses : t -> int
val evictions : t -> int

(** memoized results currently resident *)
val resident : t -> int
