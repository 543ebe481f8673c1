(** Bounded in-memory cache of generated event traces
    ({!Mach.Mtrace.t}), keyed by (compiled-IR digest, fuel) — the two
    inputs the config-independent event stream depends on.  The machine
    config deliberately never enters the key: one resident trace prices
    every config via {!Mach.Replay}.

    This is the trace-once/model-many complement to the engine's
    sim-dedup layer: Rcache's sim entries dedup *results* per
    (ir, config, fuel); this layer caches the *trace*, so pricing known
    code on a new config costs one model fold instead of a semantic
    re-execution.

    Traces are one word per dynamic memory access and branch, so the
    budget is total retained words (default {!default_capacity_words} =
    8M, 64 MiB); eviction is LRU.  A single trace larger than the whole
    budget is generated, returned, and not retained. *)

type t

(** default retention budget, in trace words *)
val default_capacity_words : int

(** [?store] attaches a durable {!Tstore} tier: memory misses consult
    the store before generating, and fresh generations are written
    through, so a warm store replays grids across runs and processes
    without re-executing semantics.  The caller keeps ownership of the
    store (and closes it). *)
val create : ?capacity_words:int -> ?store:Tstore.t -> unit -> t

(** the cached trace for (ir_digest, fuel), refreshing its LRU position *)
val find : t -> ir_digest:string -> fuel:int -> Mach.Mtrace.t option

(** [find_or_generate t ~ir_digest ~fuel gen] returns the cached trace
    or calls [gen] at most once, retaining the result (budget
    permitting).  With a [store] attached, memory misses consult the
    store first (a store hit skips [gen]) and a fresh generation is
    written through.  [gen] must produce the trace of the compiled
    program [ir_digest] digests, at [fuel] — the cache trusts the
    caller's keying, as Rcache does. *)
val find_or_generate :
  t -> ir_digest:string -> fuel:int -> (unit -> Mach.Mtrace.t) -> Mach.Mtrace.t

(** {2 Statistics} (also mirrored into the Obs metrics registry:
    [tcache.hits] / [tcache.misses] / [tcache.evictions] counters and
    the capacity-pressure gauges [tcache.resident_words] /
    [tcache.uncached]) *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int

(** traces generated but too large to retain *)
val uncached : t -> int

(** entries currently resident *)
val resident : t -> int

(** total retained words *)
val resident_words : t -> int

val capacity_words : t -> int
