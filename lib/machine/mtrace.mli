(** Trace generation: the "trace once" half of trace-once/model-many.

    One run of {!Mira.Decode.Exec}, the one dispatch loop, over a model
    whose hooks count each hooked op's executions and record the only
    two streams whose cost depends on what ran before: load/store byte
    addresses with write bits, and branch sites with taken bits, as one
    packed int per word, in program order.  Every other cost is fixed
    per static op, given the config, so the trace prices it from
    execution counts instead ({!Replay}):

    - each static run of simple-issue ops starts from an empty issue
      bundle (see {!Mira.Decode.MODEL}), so all its executions cost the
      same; the trace keeps each executed run once, as a range of its
      signature table, with its execution count;
    - a long op or a jump costs its class latency whatever ran before
      it; the trace keeps an execution count per latency class.

    Nothing here reads {!Config.t}: a program's dynamic instruction and
    memory-reference stream is a property of the program alone, so one
    trace prices an entire architecture grid.  The config-independent
    counters (TOT_INS, LD_INS, SR_INS, BR_INS, BR_TKN, FP_INS, INT_INS,
    MUL_INS, DIV_INS, CALL_INS) are derived into {!field:t.base} at
    generation time, with {!Flatsim.charge_blocks}; only TOT_CYC, BR_MSP
    and the cache counters are left to the replay.

    A trap or fuel exhaustion leaves nothing to price: {!Replay}
    re-raises it.  Such a trace keeps only its outcome, output and
    steps. *)

(** {2 Stream words}

    One OCaml int per word; tag in the low 2 bits, payload above:

    - {!tag_mem}: payload = (byte address [lsl] 1) [lor] write;
    - {!tag_branch}: payload = (site id [lsl] 1) [lor] taken. *)

val tag_mem : int
val tag_branch : int

(** how the traced execution ended; {!Replay} re-raises the engine
    exception of a non-[Finished] one *)
type outcome = Finished | Trapped of string | Exhausted

(** A finished trace's arrays are exact-length; a stopped trace's are
    empty. *)
type t = {
  events : int array;  (** the memory and branch stream *)
  n : int;  (** stream words: [Array.length events] *)
  sig_uses : int array array;
      (** signature id -> registers read: every simple-issue op of the
          program, in code order *)
  sig_dst : int array;  (** signature id -> defined register *)
  run_first : int array;
      (** run -> its first signature id: one run per hooked op that
          executed after a non-empty static run of simple ops, in code
          order *)
  run_len : int array;  (** run -> its signature count *)
  run_count : int array;  (** run -> executions *)
  long_count : int array;
      (** latency class ({!Mira.Decode.cls_mul} .. {!Mira.Decode.cls_jump})
          -> executions of long ops and jumps *)
  base : Counters.bank;  (** config-independent counters *)
  outcome : outcome;
  ret : Mira.Interp.value;  (** [VUndef] unless [Finished] *)
  output : string;  (** printed output up to the end / trap *)
  steps : int;
}

(** stream size in bytes (one word each) *)
val bytes : t -> int

val outcome_repr : outcome -> string

(** Trace one execution of a decoded program.  Traps and fuel
    exhaustion are captured into {!field:t.outcome}; only malformed-label
    [Invalid_argument] (and a missing [main]'s trap) escape, as from
    {!Flatsim.run}. *)
val generate : ?fuel:int -> Mira.Decode.t -> t

(** [decode] + {!generate} *)
val generate_program : ?fuel:int -> Mira.Ir.program -> t

(** {2 Serialization}

    The compact form [Engine.Tstore] persists: a version byte, the
    outcome, output and steps, and for a finished trace its return
    value, the stream words delta-coded {e per tag} (zigzag + LEB128
    varints, with the tag packed into the first byte of each word next
    to 5 payload bits), the signature table, the run table, the class
    counts and the base bank.  Values within one tag are strongly
    autocorrelated (a striding load's addresses, a loop's branch site),
    so most words encode in one to three bytes, far below the 8
    bytes/word of the in-memory array.

    The payload carries no checksum — framing and integrity belong to
    the store — but {!decode} validates structurally (version, tags,
    bounds, exact consumption) and bounds every index the pricing reads:
    each run lies inside the signature table, each class is below
    {!Mira.Decode.cls_count} and the bank has {!Counters.count} entries.
    It returns [Error] rather than raising on any malformed input. *)

val codec_version : int

val encode : t -> string
(** compact binary form; [decode (encode tr)] is bit-exact ({!equal}) *)

val decode : string -> (t, string) result

val equal : t -> t -> bool
(** bit-exact equality (floats by bit pattern) *)
