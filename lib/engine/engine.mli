(** The batched, parallel, cache-backed sequence-evaluation service.

    Every experiment reduces to one operation — "compile program [p]
    under sequence [s] and measure it on the simulated machine" — and
    this module is the single path for it.  It adds, over calling the
    simulator directly:

    - a content-addressed persistent cache ({!Rcache}) keyed by the IR
      digest, the pass sequence, the machine configuration digest, the
      simulation fuel and the pass-set version, so identical evaluations
      are never simulated twice, within or across runs;
    - a pass-compilation trie ({!Pctrie}) memoizing single pass
      applications by (input-IR digest, pass), so a sweep compiles each
      distinct sequence {e prefix} once instead of once per sequence;
    - a simulation-dedup layer keying simulator runs by (compiled-IR
      digest, machine config, fuel): sequences that converge to
      identical code — no-op tails, commuting passes, fixpoints — are
      simulated exactly once, and the (program, sequence) entry is
      filled from the shared result.  Dedup entries live in the same
      Rcache, so convergence is remembered across runs.  Both layers
      are on by default and disabled together by [create ~share:false]
      (the [--no-share] differential baseline: outcomes are identical
      either way, only the work changes);
    - a [Unix.fork] worker pool ({!Pool}) for batches, with per-task
      timeouts and crash retries, returning results in task order so a
      parallel run is bit-identical to a serial one.  With sharing on,
      misses are compiled in the parent in prefix-lexicographic order
      (the trie's LRU walks one subtree at a time) and only distinct
      compiled programs are dispatched, in that same prefix-local
      order;
    - a stats surface (evaluations / hits / misses / dedup hits /
      simulations / trie traffic / failures / wall-time) printable as a
      table.

    Failures (trap, divergence) are first-class cached results with cost
    [infinity]: a known-broken sequence loses every comparison without
    being re-simulated.  Worker crashes and timeouts also cost
    [infinity] but are {e not} cached, since they may not reproduce. *)

(* the submodules, re-exported: the library is wrapped, so this is the
   public path to the result store, the worker pool, the fault-injection
   layer and the sweep journal *)
module Dlog = Dlog
module Rcache = Rcache
module Pool = Pool
module Faults = Faults
module Journal = Journal
module Pctrie = Pctrie
module Tcache = Tcache
module Tstore = Tstore
module Grid = Grid

type outcome = {
  cost : float;             (** cycles, or [infinity] on failure *)
  cycles : int option;
  code_size : int option;
  counters : int array option;  (** full bank, {!Mach.Counters.all} order *)
  from_cache : bool;
}

type stats = {
  mutable evals : int;     (** evaluations requested *)
  mutable hits : int;      (** served from the (program, sequence) cache *)
  mutable sims : int;      (** simulator runs actually executed *)
  mutable dedup_hits : int;
      (** misses whose simulation was shared with another sequence that
          compiled to identical code (in-batch or via a persisted sim
          entry) instead of running the simulator *)
  mutable failures : int;  (** evaluations that trapped / diverged / died *)
  mutable wall : float;    (** seconds spent inside the engine *)
}

type t

(** [create config] builds an engine for one machine configuration.
    [jobs] bounds the worker pool for batch calls (default 1 = serial);
    [cache] plugs in a result store (default: a fresh in-memory one);
    [max_respawns] caps worker respawns per batch before the pool
    degrades to serial (default {!Pool.default_max_respawns}).
    Evaluations run on {!Mach.Sim.default_fuel}, which is part of the
    cache key; the pool keeps {!Pool.map}'s own timeout, retry and
    backoff defaults.
    [share] (default true) enables the compilation trie and the
    simulation-dedup layer; the trie's LRU of materialized IRs holds
    {!Pctrie.default_capacity} entries.
    Every simulation runs on the flat engine.  Pricing one program on
    several configs goes through {!Grid.run_grid} instead, which shares
    one trace across the configs through a {!Tcache}. *)
val create :
  ?jobs:int ->
  ?cache:Rcache.t ->
  ?max_respawns:int ->
  ?share:bool ->
  Mach.Config.t ->
  t

val config : t -> Mach.Config.t
val jobs : t -> int
val cache : t -> Rcache.t

(** is prefix sharing / simulation dedup enabled? *)
val share : t -> bool

(** the engine's compilation trie, [None] when sharing is off *)
val trie : t -> Pctrie.t option

(** hex digest of a program ({!Pctrie.digest}: printed IR plus the
    printer-omitted state): the program part of cache keys *)
val ir_digest : Mira.Ir.program -> string

(** the full cache key of (program, sequence) under this engine *)
val key : t -> Mira.Ir.program -> Passes.Pass.t list -> string

(** evaluate one sequence (serial: never forks) *)
val eval : t -> Mira.Ir.program -> Passes.Pass.t list -> outcome

(** Evaluate a batch, in parallel when [jobs > 1].  Results are in input
    order; duplicate sequences are simulated once. *)
val eval_batch : t -> Mira.Ir.program -> Passes.Pass.t list list -> outcome array

(** like {!eval_batch} over (program, sequence) pairs — one pool run for
    work spanning several programs (knowledge-base builds, tournament
    candidate scoring) *)
val eval_many : t -> (Mira.Ir.program * Passes.Pass.t list) list -> outcome array

(** just the costs of {!eval_batch} *)
val costs : t -> Mira.Ir.program -> Passes.Pass.t list list -> float array

(** a cost oracle for the sequential search strategies
    ({!Search.Strategies.eval}-compatible); the program digest is
    computed once *)
val evaluator : t -> Mira.Ir.program -> Passes.Pass.t list -> float

val stats : t -> stats

(** Everything the run survived rather than died of: worker respawns and
    fork failures, crashed/hung workers, poisoned tasks, degradations to
    serial execution, quarantined cache lines, absorbed write errors,
    broken stale locks.  All zero on a clean run. *)
type health = {
  respawns : int;
  spawn_failures : int;
  crashed_workers : int;
  timeouts : int;
  poisoned : int;
  serial_fallbacks : int;
  cache_quarantined : int;
  cache_write_errors : int;
  stale_locks_broken : int;
}

val health : t -> health

(** no degradation events at all? *)
val healthy : t -> bool

(** one-line report: ["engine health: ok"] or the non-zero counters *)
val pp_health : Format.formatter -> t -> unit

(** hits / evals, in [0,1]; 0 when nothing was evaluated *)
val hit_rate : t -> float

(** the printable stats table; [wall] line omitted when [wall:false]
    (e.g. under cram, where timings are not reproducible) *)
val pp_stats : ?wall:bool -> Format.formatter -> t -> unit
