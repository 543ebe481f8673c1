(** Trace generation: the "trace once" half of trace-once/model-many.

    One run of {!Mira.Decode.Exec}, the one dispatch loop, over a model
    whose hooks record the model-relevant event stream — runs of
    simple-issue ops by issue signature, long-latency classes, load/store
    byte addresses, branch sites with taken bits — as one packed int per
    event, in program order.  {!Replay} then folds that stream through
    the config-dependent accounting once per machine config.

    Nothing here reads {!Config.t}: a program's dynamic instruction and
    memory-reference stream is a property of the program alone, so one
    trace prices an entire architecture grid.  The config-independent
    counters (TOT_INS, LD_INS, SR_INS, BR_INS, BR_TKN, FP_INS, INT_INS,
    MUL_INS, DIV_INS, CALL_INS) are accumulated once at generation time
    into {!field:t.base}; only TOT_CYC, BR_MSP and the cache counters
    are left to the replay pass.

    Simple-issue ops fire no hook.  The hook of the op that ends a
    static run of them writes the whole run, which has just executed
    once (see {!Mira.Decode.MODEL}).  A trap or fuel exhaustion can stop
    a run part-way; generation then writes the executed prefix of that
    run from the steps no hook accounted for, so a stopped trace holds
    exactly the events and counters of the ops that ran before the
    stop. *)

(** {2 Event encoding}

    One OCaml int per word; tag in the low 2 bits, payload above:

    - {!tag_simple}: payload = (issue-signature id [lsl] {!run_bits})
      [lor] (run length - 1): a run of consecutive simple-issue events
      whose signature ids (indices into {!field:t.sig_uses} /
      {!field:t.sig_dst}) are id, id+1, ...  Signature ids follow static
      code order, so a static run of simple ops is one word, or one per
      [2 ^ run_bits] ops; a run never spans another event;
    - {!tag_long}: payload = ((run length - 1) [lsl] {!cls_bits}) [lor]
      latency class ({!Mira.Decode.cls_mul} .. {!Mira.Decode.cls_jump},
      priced per config by {!Flatsim.lat_table}): a run of consecutive
      long-latency events of the same class, mapped to the config's
      latency at replay time and folded in O(1) (one bundle drain, then
      pure cycle arithmetic); a run never spans another event;
    - {!tag_mem}: payload = (byte address [lsl] 1) [lor] write;
    - {!tag_branch}: payload = (site id [lsl] 1) [lor] taken. *)

val tag_simple : int
val tag_long : int
val tag_mem : int
val tag_branch : int

val run_bits : int
(** width of the run-length field in a {!tag_simple} word (runs cap at
    [2 ^ run_bits] events and split) *)

val cls_bits : int
(** width of the latency-class field in a {!tag_long} word; the run
    length occupies the bits above it *)

(** how the traced execution ended; a non-[Finished] trace still holds
    the event prefix accounted before the stop, and {!Replay} re-raises
    the corresponding engine exception *)
type outcome = Finished | Trapped of string | Exhausted

type t = {
  events : int array;  (** packed words; only [[0, n)] is meaningful *)
  n : int;
  sig_uses : int array array;  (** signature id -> registers read *)
  sig_dst : int array;         (** signature id -> defined register *)
  sig_u0 : int array;
      (** [sig_uses] flattened into two scalar columns (simple-issue ops
          read at most two registers); absent uses point at the sentinel
          stamp slot [max_reg + 1], which is never written *)
  sig_u1 : int array;
  max_reg : int;
      (** largest register id in the sig tables — the replay pre-sizes
          its stamp tables past it and the sentinel slot above it *)
  base : Counters.bank;        (** config-independent counters *)
  outcome : outcome;
  ret : Mira.Interp.value;     (** [VUndef] unless [Finished] *)
  output : string;             (** printed output up to the end / trap *)
  steps : int;
}

(** the meaningful event words, as a fresh array (tests) *)
val words : t -> int array

(** trace size in bytes (events only, one word each) *)
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

    The compact form [Engine.Tstore] persists: a version byte, then the
    event words delta-coded {e per tag} (zigzag + LEB128 varints, with
    the tag packed into the first byte of each word next to 5 payload
    bits), then the remaining record fields.  Values within one tag are
    strongly autocorrelated — a striding load's addresses, a loop's
    branch site, a repeated run word — so loop-dominated traces encode
    almost every word in a single byte, far below the 8 bytes/word of
    the in-memory array.  [sig_uses] is not stored; it is reconstructed
    exactly from the flattened columns and the sentinel [max_reg + 1].

    The payload carries no checksum — framing and integrity belong to
    the store — but {!decode} validates structurally (version, tags,
    bounds, exact consumption) and returns [Error] rather than raising
    on any malformed input. *)

val codec_version : int

val encode : t -> string
(** compact binary form; [decode (encode tr)] is bit-exact ({!equal}) *)

val decode : string -> (t, string) result

val equal : t -> t -> bool
(** bit-exact equality (floats by bit pattern); events capacity beyond
    [n] is ignored *)
