(** Span tracer: nested begin/end spans, instants and counter samples,
    exported in the Chrome [trace_event] JSON array format that
    [chrome://tracing] and Perfetto load directly.

    Disabled by default; every emit point is behind a single mutable-bool
    test, so instrumented code pays one load+branch when tracing is off.

    Two sinks:
    - {e memory}: a bounded ring buffer of events (oldest overwritten),
      exported on demand — what tests and [--profile] use;
    - {e stream}: events are appended to an [out_channel] and flushed as
      they happen, so a crash at any point leaves a loadable trace (the
      trace_event spec makes the closing ["]"] optional for exactly this
      reason).

    Cross-process forwarding: after [fork], a worker calls {!on_fork},
    which swaps in a private memory sink and records the worker pid;
    {!drain} hands the accumulated events back (they are plain values,
    marshallable over the pool's result pipe) and the parent replays
    them with {!emit_events}.  Timestamps stay comparable because the
    child inherits the parent's clock and epoch. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = B | E | I | C

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : float;  (** seconds since the trace epoch *)
  pid : int;
  args : (string * arg) list;
}

val enabled : unit -> bool

(** [enable_memory ()] starts tracing into a fresh ring buffer of
    [capacity] events (default 65536). *)
val enable_memory : ?capacity:int -> unit -> unit

(** [enable_stream oc] starts tracing; events stream to [oc], one JSON
    object per line, flushed per event.  Writes the opening ["["]. *)
val enable_stream : out_channel -> unit

(** stop tracing and drop all buffered state (the stream channel, if
    any, is not closed: the caller owns it) *)
val disable : unit -> unit

(** write the closing ["]"] on a stream sink (idempotent); memory sinks
    are unaffected.  Call before closing the trace file normally; a
    crash that skips it still leaves a valid trace. *)
val finish : unit -> unit

(** the pid stamped on subsequent events (default 0; callers set the
    real one since this library cannot ask the OS for it) *)
val set_pid : int -> unit

val begin_span : ?cat:string -> ?args:(string * arg) list -> string -> unit

(** ends the innermost open span.  An [end_span] with no span open is
    dropped and counted in {!unbalanced_ends}. *)
val end_span : ?args:(string * arg) list -> unit -> unit

(** [with_span name f] wraps [f] in a span; the span is closed on
    exceptions too (with an ["error"] arg). *)
val with_span :
  ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit

(** a Chrome counter sample: a named time series of values *)
val counter : ?cat:string -> string -> (string * float) list -> unit

(** number of spans currently open (for tests) *)
val open_spans : unit -> int

(** end_span calls dropped because no span was open *)
val unbalanced_ends : unit -> int

(** events overwritten by the memory ring since enable *)
val dropped_events : unit -> int

(** worker side, after fork: swap in a private memory sink (so the child
    never writes the parent's stream) and stamp subsequent events with
    [pid] *)
val on_fork : pid:int -> unit

(** take and clear the events accumulated since the last drain *)
val drain : unit -> event array

(** replay foreign events (a worker's drained batch) into this sink *)
val emit_events : event array -> unit

(** buffered events, oldest first (memory sink; empty for streams) *)
val events : unit -> event list

(** export the memory sink as a complete Chrome trace JSON document *)
val to_json : unit -> string

(** serialize one event as a JSON object (exposed for the checker test) *)
val event_to_json : event -> string
