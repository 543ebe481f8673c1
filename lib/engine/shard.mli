(** Shard planning and run-manifest capture for distributed sweeps.

    A sweep over [n] items is cut into contiguous shards — the unit the
    coordinator serves to workers, steals between them, and re-queues
    when a worker dies.  Within a shard the worker checkpoints at
    {!Journal} chunk granularity, so the two levels compose: shards are
    the distribution unit, chunks the crash-recovery unit.

    The manifest ([manifest.json] in the run directory) captures
    everything needed to reproduce or resume the run as a whole: the
    git revision and a digest of the uncommitted diff, the job key (the
    digest binding program, configuration, sequence list, fuel and
    chunking), the shard map, and each shard's journal key.  This is
    the mir-slurm [runscript.sh] discipline: a sweep's output is
    meaningless unless the exact tree that produced it is named. *)

type t = { id : int; lo : int; hi : int }

(** [plan ~n ~shards] cuts [0..n-1] into at most [shards] contiguous,
    balanced, non-empty shards in index order (fewer when [n < shards];
    empty when [n = 0]).
    @raise Invalid_argument if [n < 0] or [shards <= 0] *)
val plan : n:int -> shards:int -> t array

(** the shard's journal key: binds the job key and the shard's identity
    (id, bounds), so a journal can never resume a different shard *)
val key : job:string -> t -> string

(** [git_revision ()] — the current commit hash, or ["unknown"] outside
    a git checkout *)
val git_revision : unit -> string

(** [git_dirty_digest ()] — ["clean"] when the tree matches HEAD, the
    MD5 of [git diff HEAD] when it does not, ["unknown"] outside a git
    checkout.  Byte-exact reproducibility needs rev {e and} diff. *)
val git_dirty_digest : unit -> string

(** [write_manifest ~path ~run ~job ~n ~chunk_size ~meta plan] writes
    the run manifest as JSON: schema, the run id [run] (the correlation
    id every process of the run stamps on its telemetry), git
    provenance, job key, sweep shape, caller metadata (config name,
    sampling seed, ...), and the shard map with per-shard journal
    keys.  The write is atomic ({!Obs.Json.write_file}): a crash leaves
    the old manifest or the new one, never a torn one. *)
val write_manifest :
  path:string ->
  run:string ->
  job:string ->
  n:int ->
  chunk_size:int ->
  meta:(string * string) list ->
  t array ->
  unit
