(** Fold a Chrome-style span trace ({!Obs.Trace.event}s, in the order the
    parent's memory sink holds them) into per-span and per-layer times.

    - A span's {e self} time is its duration minus the durations of its
      child spans on the same pid.
    - The wall of the region is the duration of the root span, which
      must be opened on the parent pid.  Spans of the parent nested in
      the root contribute their self time to their layer; the root's own
      self time is the [unattributed] row.
    - Worker spans arrive forwarded while a [pool.batch] span of the
      parent is open.  The parent's self time inside that batch is its
      {e wait}.  The share of the wait the batch's workers spent busy
      (busy / (workers x batch duration)) is split over the layers they
      ran, in proportion to their self time; the rest stays with
      [pool].  So the layer times plus [unattributed] sum to the wall.
    - An end event with no open span on its pid is dropped and counted;
      spans still open at the end are counted and ignored. *)

type span_stat = {
  calls : int;
  total_ms : float;  (** summed durations *)
  self_ms : float;   (** summed self times, on whichever pid ran them *)
}

type t = {
  wall_ms : float;          (** duration of the root span *)
  unattributed_ms : float;  (** root self time: under no other span *)
  layers : (string * float) list;
      (** layer -> wall-clock self ms, sorted by layer name *)
  spans : (string * span_stat) list;  (** by span name, sorted *)
  pool_batches : int;
  pool_tasks : int;
  pool_wait_ms : float;      (** parent self time inside [pool.batch] *)
  pool_busy_ms : float;      (** summed top-level [pool.task] durations *)
  pool_capacity_ms : float;  (** summed batch duration x workers *)
  unbalanced_ends : int;
  unclosed : int;
}

(** the layer a span belongs to: its category, except that category
    ["trace"] splits into [mtrace] and [replay] by name, ["sim"] is
    [flatsim], and the root (category ["bench"]) is [unattributed] *)
val layer_of : cat:string -> name:string -> string

(** [fold ~root events]; a missing or unclosed root gives [wall_ms] 0 *)
val fold : root:string -> Obs.Trace.event list -> t

val layer_ms : t -> string -> float
val span : t -> string -> span_stat

(** sum of a numeric end-event argument over all spans of one name
    (e.g. ["flatsim.run"] / ["steps"]) *)
val arg_sum : Obs.Trace.event list -> span:string -> arg:string -> float

(** busy / capacity over every pool batch; 0 without batches *)
val utilization : t -> float
