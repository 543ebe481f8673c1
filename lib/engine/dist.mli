(** Coordinator/worker orchestration for distributed sweeps.

    One coordinator owns a sweep of [n] items, cut into {!Shard}s; any
    number of workers connect over a Unix-domain socket, each pulling
    shards, evaluating them with its own full evaluation stack (engine,
    pool, caches, per-shard {!Journal} checkpoints in its own
    directory) and streaming per-shard cost vectors back.  The
    coordinator:

    - plans shards and assigns each a {e home} worker slot; a worker
      drains its home queue first and then {e steals} from the longest
      other queue, so a skewed shard cannot strand the fleet;
    - detects worker death by connection loss and {e re-queues} the
      dead worker's in-flight shard (at the front of its home queue, so
      a rejoining worker with the same journal directory resumes it
      from its checkpoint rather than recomputing);
    - writes a run manifest ({!Shard.write_manifest}) before serving,
      so the sweep is reproducible and resumable as a whole;
    - assembles the full cost vector — bit-identical to a
      single-process sweep, because every item's cost is deterministic
      and positions are fixed by the shard map.

    The wire protocol is deliberately tiny: length-prefixed frames
    (8 hex digits, then that many payload bytes) carrying
    ['|']-separated fields.  Workers speak
    [hello -> need -> (shard ... done)* -> fin]; a [hello] whose job
    key does not match the coordinator's is rejected, so a worker
    started with different sweep inputs can never contribute wrong
    numbers.

    [sweep_local] runs the whole arrangement in one command: it forks
    [workers] local worker processes (respawning dead ones against a
    budget, degrading to in-process evaluation when none can be kept
    alive), serves them, merges the per-worker result caches into a
    primary cache via {!Rcache.absorb}, and returns the costs.

    Fault injection: workers consult the [dist-worker-exit] point
    (occurrence = shard id) at the start of a shard's first attempt and
    die right after journaling its first chunk when it fires.

    Everything is instrumented through {!Obs}: [dist.*] counters
    (shards served, steals, re-queues, worker deaths, respawns, merged
    entries) and spans around serving, per-shard work and the merge.

    {b Run telemetry.}  The coordinator mints a {e run id} per
    invocation, records it in the manifest and returns it to every
    worker in the hello reply ([ok|<id>]); workers stamp it on their
    traces ({!Obs.Trace.set_run}) and shard spans, so the scattered
    telemetry of one run is correlatable after the fact.  While serving,
    the coordinator maintains [<dir>/rollup.json] (schema
    [icc-rollup/1], refreshed at most twice a second, atomically
    replaced): per-shard progress read from the worker journals,
    orchestration counts, and the merged per-worker metrics exports.
    Workers write [<worker dir>/metrics.jsonl] after every shard, and —
    when tracing is on — [sweep_local] children write their own
    crash-safe [<worker dir>/trace-<pid>.json] on the coordinator's
    trace epoch, which {!Obs.Merge} (via [miracc trace-merge]) stitches
    into one Chrome trace.  {!survey} rebuilds the rollup view cold from
    the run directory alone. *)

(** everything the coordinator observed while serving one sweep *)
type stats = {
  mutable run_id : string;      (** the run id minted for this invocation *)
  mutable workers_seen : int;   (** distinct worker names that said hello *)
  mutable shards_served : int;  (** shard grants, including re-serves *)
  mutable steals : int;         (** grants filled from another home's queue *)
  mutable requeues : int;       (** in-flight shards returned by a death *)
  mutable worker_deaths : int;  (** connections lost before [fin] *)
  mutable respawns : int;       (** local workers respawned ([sweep_local]) *)
  mutable serial_fallbacks : int;
      (** times the coordinator had to evaluate remaining shards itself
          because no worker could be kept alive ([sweep_local]) *)
  mutable absorbed : int;       (** cache entries merged from worker caches *)
  mutable absorb_duplicates : int;
  mutable absorb_rejected : int;
}

(** protocol/setup failures: socket unusable, job-key rejection,
    malformed frame.  (Worker {e death} is never an error — it is
    survived and counted.) *)
exception Dist_error of string

(** the identity and shape of one distributed sweep; [job] must bind
    everything the costs depend on (program, configuration, sequence
    list, fuel, evaluation version) — workers are validated against it *)
type spec = {
  job : string;        (** digest of the sweep's inputs *)
  n : int;             (** number of items *)
  chunk_size : int;    (** journal checkpoint granularity within a shard *)
  shards : int;        (** shards to plan (clamped to [n]) *)
}

(** [serve ~socket ~dir ~workers spec] — run the coordinator until
    every shard is complete.  [socket] is the Unix-domain path to
    listen on (an existing file is replaced); [dir] is the run
    directory ([manifest.json] lands there, created if missing);
    [workers] is the home-slot count used for shard homing (usually the
    expected worker count; more workers than slots simply share).
    [meta] is extra manifest metadata.  Returns the coordinator stats
    and the assembled costs.  Workers that connect after completion are
    told [fin] during the drain; the listener is removed on return.
    @raise Dist_error if the socket cannot be created
    @raise Invalid_argument if [workers <= 0] *)
val serve :
  socket:string ->
  dir:string ->
  workers:int ->
  ?meta:(string * string) list ->
  spec ->
  stats * float array

(** [work ~socket ~dir spec ~eval ()] — the worker loop: connect, say
    hello, then pull shards until [fin].  Each shard [s] is evaluated
    through a checkpointed {!Journal.run} at
    [dir/shard-<id>.journal] (journal key = {!Shard.key}), calling
    [eval lo hi] per chunk with {e global} item indices; a worker
    killed mid-shard and restarted with the same [dir] resumes from the
    journal.  [name] labels the worker (default [w<pid>]); [slot], when
    [>= 0], requests a home queue — give a rejoining worker its old
    slot so it is offered its own half-journaled shard first.  Returns
    the number of shards this worker completed.

    The worker's metrics registry is exported to [metrics_path]
    (default [dir/metrics.jsonl]) after every completed shard and at
    [fin] — atomically, so the coordinator's live rollup can read it at
    any moment.  If the hello reply carries a run id it is installed
    with {!Obs.Trace.set_run} before any shard span is emitted.
    @raise Dist_error if the coordinator is unreachable or rejects the
    job key *)
val work :
  ?name:string ->
  ?slot:int ->
  ?metrics_path:string ->
  socket:string ->
  dir:string ->
  spec ->
  eval:(int -> int -> float array) ->
  unit ->
  int

(** [sweep_local ~workers ~dir spec ~make_eval] — the one-command local
    mode: fork [workers] worker processes (each calls
    [make_eval ~worker_dir] {e after} the fork, so caches and engines
    are created in the child), serve them, respawn dead workers up to
    [max_respawns] times, and fall back to evaluating remaining shards
    in-process when no worker survives.  [cache], when given, receives
    every worker cache via {!Rcache.absorb} at the end (the merge stats
    land in the returned {!stats}); by convention a worker's cache
    lives at [<worker_dir>/cache] — [make_eval] should put it there to
    get merged; an unmergeable donor is skipped with a warning,
    costing warm-start only.  Worker directories are
    [dir/workers/w<i>] and are kept, so a re-run resumes journals.
    @raise Invalid_argument if [workers <= 0] *)
val sweep_local :
  workers:int ->
  dir:string ->
  ?max_respawns:int ->
  ?cache:Rcache.t ->
  ?meta:(string * string) list ->
  spec ->
  make_eval:(worker_dir:string -> int -> int -> float array) ->
  stats * float array

(** the worker-cache directory absorbed for worker slot [i] of a local
    sweep — exposed so callers can point a resumed run at the same
    layout *)
val worker_dir : dir:string -> int -> string

(** [survey ~dir] — rebuild the run's rollup view cold, from the run
    directory alone: the manifest names the shards and their journal
    keys, the worker journals under [dir/workers/*/] give per-shard
    chunk progress (torn tails counted, never fatal), the worker
    [metrics.jsonl] exports feed the merged metrics, and — since
    orchestration counts and timings live only in the coordinator — the
    last [rollup.json] it left behind fills those in when present.
    [None] when [dir] has no readable manifest.  Read-only and
    lock-free: safe on a run another process is still serving. *)
val survey : dir:string -> Obs.Rollup.input option

(** [trace_sources ~dir] — the [(label, path)] trace files of a run, in
    merge order: any [trace*.json] directly in [dir] (labelled
    [coordinator]) first, then each worker directory's [trace*.json]
    (labelled by worker, [+k]-suffixed when a respawned slot left
    several).  Feed straight to {!Obs.Merge.merge_files}. *)
val trace_sources : dir:string -> (string * string) list
