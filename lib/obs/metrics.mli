(** Metrics registry: named counters, gauges and log-scale histograms.

    Handles are obtained once (typically at module init) with
    {!counter}/{!gauge}/{!histogram} — get-or-create on a process-global
    registry — and updated with O(1) arithmetic, so instrumentation
    sites stay cheap enough to leave on permanently.  Naming convention
    (enforced socially, documented in DESIGN.md): [subsystem.event],
    with a [_ms] / [_bytes] suffix naming the unit of histograms.

    Histograms bucket values on a base-2 log scale from 1e-6 up (64
    buckets plus under/overflow), tracking count/sum/min/max exactly;
    quantiles are linearly interpolated inside the hit bucket, so a
    reported quantile is within one bucket ratio (2x) of the truth.

    Export: a human table ({!pp_table}) and JSONL, one metric per line
    ({!to_jsonl}). *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge

(** [histogram ~unit_ name]: [unit_] is a label for export only
    (default ["ms"]) *)
val histogram : ?unit_:string -> string -> histogram

(** registering a name twice with different kinds raises
    [Invalid_argument]; same kind returns the existing handle *)

val incr : ?by:int -> counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** timing side of the {!Obs.span} helper: when false (the default),
    spans skip the clock reads and histogram updates entirely *)
val timing : bool ref

val value : counter -> int
val hist_count : histogram -> int
val hist_sum : histogram -> float

(** [quantile h q] for q in [0,1]; [nan] on an empty histogram *)
val quantile : histogram -> float -> float

(** bucket index of a value (0 = underflow, 65 = overflow); exposed for
    the unit tests of the bucket math *)
val bucket_of_value : float -> int

val n_buckets : int

(** all metrics with a non-default value, sorted by name, rendered as
    one string per metric value (the table's right column) *)
val snapshot : unit -> (string * string) list

(** the human table; prints "metrics (none recorded)" when empty *)
val pp_table : Format.formatter -> unit -> unit

val to_jsonl : unit -> string

(** zero every registered metric, keeping handles valid (tests) *)
val reset : unit -> unit
