module Interp = Mira.Interp
module D = Mira.Decode

(* Trace-once half of the trace-once/model-many split (see DESIGN.md
   "Trace-once, model-many").  Generation is Decode.Exec, the one
   dispatch loop, run over a model whose hooks write events: one run of
   a decoded program records everything the machine model consumes —
   runs of simple-issue ops by issue signature, long-latency classes,
   load/store byte addresses, branch sites with taken bits — as one
   packed int per event, in program order.  Replay folds that stream
   through Flatsim's model code once per config.

   Nothing here reads Config.t: the dynamic instruction and memory
   reference stream of a program is a property of the program alone, so
   one trace prices any architecture grid.  The config-independent
   counters (TOT_INS, LD_INS, ..., BR_TKN) are accumulated into [base]
   at generation time and copied into every replay's bank, leaving only
   the config-dependent ones (TOT_CYC, BR_MSP, cache counters) to the
   replay pass.

   Simple-issue ops fire no hook.  Control enters a static run of them
   only at its first slot (see Decode.MODEL), so the hook of the op that
   ends a run writes the whole run, from per-op tables built once per
   generation, before the op's own event.  A trap or fuel exhaustion
   can stop a run part-way; [charge_stop] writes that prefix once the
   program has stopped. *)

(* ------------------------------------------------------------------ *)
(* Event encoding: one int per word, tag in the low 2 bits.

     tag 0 (simple)  payload = (issue-signature id << 8) | (run - 1):
                     a run of [run] consecutive simple-issue events whose
                     signature ids are id, id+1, ...  Signature ids are
                     assigned in static code order, so a static run of
                     simple ops — the common case — is one word, or one
                     per 256 ops.  A run never spans another event.
     tag 1 (long)    payload = ((run - 1) << 3) | latency class (one
                     of Decode's): a run of [run] consecutive
                     long-latency events of one class — FP-heavy
                     straight-line code produces them — which the replay
                     folds in O(1) (one bundle drain, then pure cycle
                     arithmetic).  A run never spans another event.
     tag 2 (mem)     payload = (byte address << 1) | write
     tag 3 (branch)  payload = (site id << 1) | taken                  *)

let tag_simple = 0
let tag_long = 1
let tag_mem = 2
let tag_branch = 3

(* run length per simple word: 8 bits (runs longer than this split) *)
let run_bits = 8
let run_max = 1 lsl run_bits

(* class field width of a long word; run length lives above it *)
let cls_bits = 3
let lrun_max = 1 lsl 20

type outcome = Finished | Trapped of string | Exhausted

type t = {
  events : int array; (* packed words; only [0, n) is meaningful *)
  n : int;
  sig_uses : int array array; (* issue signature id -> registers read *)
  sig_dst : int array; (* issue signature id -> defined register *)
  (* sig_uses flattened into two scalar columns for the replay's
     dependence check (simple-issue ops read at most two registers).
     Missing uses point at the sentinel stamp slot [max_reg + 1], which
     is never written and so never matches a live bundle id. *)
  sig_u0 : int array;
  sig_u1 : int array;
  max_reg : int; (* largest register id in the sig tables *)
  base : Counters.bank; (* config-independent counters *)
  outcome : outcome;
  ret : Interp.value; (* VUndef unless Finished *)
  output : string; (* printed output up to the end / trap *)
  steps : int;
}

let words tr = Array.sub tr.events 0 tr.n
let bytes tr = tr.n * 8

let outcome_repr = function
  | Finished -> "finished"
  | Trapped m -> Printf.sprintf "trap %S" m
  | Exhausted -> "out of fuel"

(* ------------------------------------------------------------------ *)
(* Generation state: the model Decode.Exec runs *)

type gt = {
  mutable ev : int array;
  mutable n : int;
  (* pending run of consecutive same-class long events (-1 = none) *)
  mutable lrun_cls : int;
  mutable lrun_len : int;
  base : Counters.bank;
  (* Per global code offset, built once per generation from the static
     code: the number of simple-issue slots before it (a simple slot's
     own signature id), the length of the static run of simple slots
     that ends just before it, and whether it is a return. *)
  sid : int array;
  run_len : int array;
  is_ret : bool array;
  sig_uses : int array array;
  sig_dst : int array;
  max_reg : int;
  (* What [charge_stop] needs: the steps the hooks have accounted for,
     the last hooked op and a branch's direction, the return sites of
     the active calls and where the last return went. *)
  mutable accounted : int;
  mutable last : int;
  mutable taken : bool;
  mutable sites : int list;
  mutable ret_site : int;
}

let mk_gt (dp : D.t) : gt =
  let nsig =
    Array.fold_left
      (fun n (df : D.dfunc) ->
        Array.fold_left
          (fun n (di : D.dinstr) -> if D.is_simple di.D.op then n + 1 else n)
          n df.D.code)
      0 dp.D.funcs
  in
  let sig_uses = Array.make (max 1 nsig) [||] in
  let sig_dst = Array.make (max 1 nsig) (-1) in
  let size = D.code_size dp in
  let sid = Array.make size 0 in
  let run_len = Array.make size 0 in
  let is_ret = Array.make size false in
  (* the largest register id any signature presents; lets the replay
     pre-size its stamp tables and skip per-event checks *)
  let max_reg = ref 0 in
  let next = ref 0 and run = ref 0 in
  Array.iter
    (fun (df : D.dfunc) ->
      Array.iteri
        (fun pc (di : D.dinstr) ->
          let gpc = df.D.base + pc in
          sid.(gpc) <- !next;
          run_len.(gpc) <- !run;
          if D.is_simple di.D.op then begin
            sig_uses.(!next) <- di.D.uses;
            sig_dst.(!next) <- di.D.dst;
            max_reg := Array.fold_left max (max !max_reg di.D.dst) di.D.uses;
            incr next;
            incr run
          end
          else begin
            is_ret.(gpc) <- di.D.op = D.ORetN || di.D.op = D.ORetV;
            run := 0
          end)
        df.D.code)
    dp.D.funcs;
  {
    ev = Array.make 4096 0;
    n = 0;
    lrun_cls = -1;
    lrun_len = 0;
    base = Counters.make ();
    sid;
    run_len;
    is_ret;
    sig_uses;
    sig_dst;
    max_reg = !max_reg;
    accounted = 0;
    last = -1;
    taken = false;
    sites = [];
    ret_site = -1;
  }

let[@inline] emit (g : gt) w =
  let n = g.n in
  if n = Array.length g.ev then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit g.ev 0 bigger 0 n;
    g.ev <- bigger
  end;
  Array.unsafe_set g.ev n w;
  g.n <- n + 1

let[@inline] flush_lrun (g : gt) =
  if g.lrun_cls >= 0 then begin
    emit g
      (((((g.lrun_len - 1) lsl cls_bits) lor g.lrun_cls) lsl 2) lor tag_long);
    g.lrun_cls <- -1;
    g.lrun_len <- 0
  end

let[@inline] emit_long g cls =
  if g.lrun_cls = cls && g.lrun_len < lrun_max then
    g.lrun_len <- g.lrun_len + 1
  else begin
    flush_lrun g;
    g.lrun_cls <- cls;
    g.lrun_len <- 1
  end

let[@inline] emit_mem g ~write addr =
  flush_lrun g;
  emit g ((((addr lsl 1) lor if write then 1 else 0) lsl 2) lor tag_mem)

let[@inline] emit_branch g site taken =
  flush_lrun g;
  emit g ((((site lsl 1) lor if taken then 1 else 0) lsl 2) lor tag_branch)

(* raw counter slots, as in Flatsim (only the config-independent ones) *)
let c_tot_ins = Counters.to_index Counters.TOT_INS
let c_ld_ins = Counters.to_index Counters.LD_INS
let c_sr_ins = Counters.to_index Counters.SR_INS
let c_br_ins = Counters.to_index Counters.BR_INS
let c_br_tkn = Counters.to_index Counters.BR_TKN
let c_fp_ins = Counters.to_index Counters.FP_INS
let c_int_ins = Counters.to_index Counters.INT_INS
let c_mul_ins = Counters.to_index Counters.MUL_INS
let c_div_ins = Counters.to_index Counters.DIV_INS
let c_call_ins = Counters.to_index Counters.CALL_INS

let[@inline] add (b : Counters.bank) i n =
  Array.unsafe_set b i (Array.unsafe_get b i + n)

let[@inline] bump b i = add b i 1

(* [len] simple ops with signature ids [sid], [sid + 1], ... ran: one
   word per [run_max] of them, after any pending long run *)
let rec emit_run g sid len =
  let k = min len run_max in
  emit g ((((sid lsl run_bits) lor (k - 1)) lsl 2) lor tag_simple);
  if len > k then emit_run g (sid + k) (len - k)

let simple_ops g sid len =
  if len > 0 then begin
    flush_lrun g;
    emit_run g sid len;
    add g.base c_tot_ins len;
    add g.base c_int_ins len
  end

(* the op at [gpc] fires a hook: the static run before it has just run
   in full *)
let[@inline] close_run g gpc =
  let len = Array.unsafe_get g.run_len gpc in
  g.accounted <- g.accounted + len + 1;
  g.last <- gpc;
  simple_ops g (Array.unsafe_get g.sid gpc - len) len

(* Every gpc Decode.Exec passes is below [D.code_size], the length of
   the per-op tables: the unsafe reads are in bounds. *)
module Model = struct
  type t = gt

  let long g gpc cls =
    close_run g gpc;
    let b = g.base in
    bump b c_tot_ins;
    if cls = D.cls_mul || cls = D.cls_div then begin
      bump b c_int_ins;
      bump b (if cls = D.cls_mul then c_mul_ins else c_div_ins)
    end
    else if cls = D.cls_call then begin
      bump b c_call_ins;
      g.sites <- (gpc + 1) :: g.sites
    end
    (* the rest but Print: FP arithmetic, compares and conversions *)
    else if cls <> D.cls_print then bump b c_fp_ins;
    emit_long g cls

  let mem g gpc write addr =
    close_run g gpc;
    bump g.base c_tot_ins;
    bump g.base (if write then c_sr_ins else c_ld_ins);
    emit_mem g ~write addr

  let branch g gpc site taken =
    close_run g gpc;
    bump g.base c_br_ins;
    if taken then bump g.base c_br_tkn;
    g.taken <- taken;
    emit_branch g site taken

  let jump g gpc =
    close_run g gpc;
    (if Array.unsafe_get g.is_ret gpc then
       match g.sites with
       | s :: rest ->
         g.ret_site <- s;
         g.sites <- rest
       | [] -> ());
    emit_long g D.cls_jump
end

module Run = D.Exec (Model)

(* the function whose code holds global offset [gpc] *)
let func_at (dp : D.t) gpc =
  let rec go i =
    let df = dp.D.funcs.(i) in
    if gpc < df.D.base + Array.length df.D.code then df else go (i + 1)
  in
  go 0

let instr_at dp gpc =
  let df = func_at dp gpc in
  df.D.code.(gpc - df.D.base)

(* where control went after the last hooked op *)
let resume_point g (dp : D.t) =
  let entry (df : D.dfunc) = df.D.base + df.D.entry_pc in
  if g.last < 0 then entry dp.D.funcs.(dp.D.main_idx)
  else
    let df = func_at dp g.last in
    let di = df.D.code.(g.last - df.D.base) in
    match di.D.op with
    | D.OBr -> df.D.base + if g.taken then di.D.dst else di.D.b
    | D.OJmp -> df.D.base + di.D.dst
    | D.ORetN | D.ORetV -> g.ret_site
    | D.OCall -> entry dp.D.funcs.(di.D.callee)
    | _ -> g.last + 1

(* A trap or fuel exhaustion stopped the run [steps] in.  The steps no
   hook accounted for are the first slots of the static run that
   control entered after the last hook, all simple but the last when
   that op trapped before its hook.  Such a load or store still counts
   (TOT_INS and LD_INS or SR_INS, with no event); a branch whose
   condition trapped counts nothing.  The op that ran out of fuel never
   ran. *)
let charge_stop g dp ~steps ~exhausted =
  let k = steps - g.accounted - if exhausted then 1 else 0 in
  if k > 0 then begin
    let r = resume_point g dp in
    match (instr_at dp (r + k - 1)).D.op with
    | op when D.is_simple op -> simple_ops g g.sid.(r) k
    | op ->
      simple_ops g g.sid.(r) (k - 1);
      if op = D.OLoad || op = D.OStore then begin
        bump g.base c_tot_ins;
        bump g.base (if op = D.OStore then c_sr_ins else c_ld_ins)
      end
  end

(* ------------------------------------------------------------------ *)

let generate_ms = Obs.Metrics.histogram "trace.generate_ms"
let generates = Obs.Metrics.counter "trace.generates"

let bytes_per_instr =
  Obs.Metrics.histogram ~unit_:"B/instr" "trace.bytes_per_instr"

let generate ?(fuel = 200_000_000) (dp : D.t) : t =
  Obs.Metrics.incr generates;
  let go () =
    let rt = D.make_rt ~fuel dp in
    let g = mk_gt dp in
    (* a missing main traps before anything runs, and escapes *)
    let outcome =
      match Run.start rt g with
      | () -> Finished
      | exception Interp.Trap m when dp.D.main_idx >= 0 -> Trapped m
      | exception Interp.Out_of_fuel -> Exhausted
    in
    let r = D.result_of rt in
    charge_stop g dp ~steps:r.Interp.steps ~exhausted:(outcome = Exhausted);
    flush_lrun g;
    let sentinel = g.max_reg + 1 in
    let nsig = Array.length g.sig_uses in
    let sig_u0 = Array.make nsig sentinel in
    let sig_u1 = Array.make nsig sentinel in
    Array.iteri
      (fun i u ->
        assert (Array.length u <= 2);
        if Array.length u >= 1 then sig_u0.(i) <- u.(0);
        if Array.length u >= 2 then sig_u1.(i) <- u.(1))
      g.sig_uses;
    {
      events = g.ev;
      n = g.n;
      sig_uses = g.sig_uses;
      sig_dst = g.sig_dst;
      sig_u0;
      sig_u1;
      max_reg = g.max_reg;
      base = g.base;
      outcome;
      ret = (if outcome = Finished then r.Interp.ret else Interp.VUndef);
      output = r.Interp.output;
      steps = r.Interp.steps;
    }
  in
  let tr =
    Obs.span_with ~cat:"trace" ~hist:generate_ms "mtrace.generate"
      ~end_args:(fun (tr : t) ->
        [
          ("events", Obs.Trace.Int tr.n);
          ("bytes", Obs.Trace.Int (bytes tr));
          ("steps", Obs.Trace.Int tr.steps);
          ("outcome", Obs.Trace.Str (outcome_repr tr.outcome));
        ])
      go
  in
  Obs.Metrics.observe bytes_per_instr
    (float_of_int (bytes tr) /. float_of_int (max 1 tr.steps));
  tr

let generate_program ?fuel (p : Mira.Ir.program) : t =
  generate ?fuel (D.decode p)

(* ------------------------------------------------------------------ *)
(* Serialization: the compact on-disk form Engine.Tstore persists.

   Event words are delta-coded per tag — the stream interleaves tags,
   but values within one tag are strongly autocorrelated (a striding
   load's addresses, a loop's branch site, a repeated simple run word),
   so each word stores the zigzagged difference from the previous value
   of the *same* tag.  The first byte of a word packs the tag into its
   low 2 bits next to 5 payload bits and a continuation bit; subsequent
   bytes are plain 7-bit LEB128.  Loop-dominated traces therefore
   encode almost every word in one byte, far under the 8 bytes/word of
   the in-memory array.  The remaining record fields (sig tables, base
   counters, outcome, ret, output, steps) are varint/zigzag-coded after
   the event section; [sig_uses] is not stored — it is reconstructed
   exactly from the flattened columns and the sentinel [max_reg + 1].

   The payload carries no checksum: framing, integrity and versioning
   belong to the store (Tstore seals each entry with an MD5 prefix).
   [decode] still validates structurally — version byte, tags, bounds,
   exact consumption — so a logically corrupt but checksum-valid entry
   is reported as an error, never a crash.  Every count is bounded by
   the bytes left before anything is allocated for it, each item taking
   at least its smallest encoding: one byte per event, bank entry,
   integer element or string byte, three per signature, eight per
   float. *)

let codec_version = 1

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let put_varint b v =
  let rec go v =
    if v land lnot 0x7f = 0 then Buffer.add_char b (Char.chr v)
    else (
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7))
  in
  if v < 0 then invalid_arg "Mtrace.put_varint: negative";
  go v

let zigzag i = (i lsl 1) lxor (i asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))
let put_zigzag b i = put_varint b (zigzag i)

(* one event word: [cont:1][payload:5][tag:2], then LEB128 chunks *)
let put_event b tag zz =
  let lo = zz land 0x1f and rest = zz lsr 5 in
  if rest = 0 then Buffer.add_char b (Char.chr ((lo lsl 2) lor tag))
  else (
    Buffer.add_char b (Char.chr (0x80 lor (lo lsl 2) lor tag));
    put_varint b rest)

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let put_float b f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

let put_value b (v : Interp.value) =
  match v with
  | Interp.VUndef -> Buffer.add_char b '\000'
  | Interp.VInt i ->
    Buffer.add_char b '\001';
    put_zigzag b i
  | Interp.VFloat f ->
    Buffer.add_char b '\002';
    put_float b f
  | Interp.VBool x ->
    Buffer.add_char b '\003';
    Buffer.add_char b (if x then '\001' else '\000')
  | Interp.VArr a ->
    Buffer.add_char b '\004';
    (match a.Interp.payload with
    | Interp.IA ia ->
      Buffer.add_char b '\000';
      put_varint b (Array.length ia);
      Array.iter (put_zigzag b) ia
    | Interp.FA fa ->
      Buffer.add_char b '\001';
      put_varint b (Array.length fa);
      Array.iter (put_float b) fa);
    put_varint b a.Interp.base;
    put_varint b a.Interp.esize;
    Buffer.add_char b (if a.Interp.mask32 then '\001' else '\000')

let encode (tr : t) : string =
  let b = Buffer.create (tr.n + 256) in
  Buffer.add_char b (Char.chr codec_version);
  put_varint b tr.n;
  let last = Array.make 4 0 in
  for i = 0 to tr.n - 1 do
    let w = tr.events.(i) in
    let tag = w land 3 and v = w lsr 2 in
    put_event b tag (zigzag (v - last.(tag)));
    last.(tag) <- v
  done;
  let nsig = Array.length tr.sig_dst in
  put_varint b nsig;
  for i = 0 to nsig - 1 do
    put_zigzag b tr.sig_dst.(i);
    put_varint b tr.sig_u0.(i);
    put_varint b tr.sig_u1.(i)
  done;
  put_varint b tr.max_reg;
  put_varint b (Array.length tr.base);
  Array.iter (put_varint b) tr.base;
  (match tr.outcome with
  | Finished -> Buffer.add_char b '\000'
  | Trapped m ->
    Buffer.add_char b '\001';
    put_string b m
  | Exhausted -> Buffer.add_char b '\002');
  put_value b tr.ret;
  put_string b tr.output;
  put_varint b tr.steps;
  Buffer.contents b

(* decoding reads from (s, pos); every primitive bounds-checks *)

type rd = { s : string; mutable pos : int }

let rd_byte r =
  if r.pos >= String.length r.s then corrupt "truncated at %d" r.pos;
  let c = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* put_varint never writes a negative: a ninth byte that sets the sign
   bit, or continues past it, is corruption *)
let rd_varint r =
  let rec go shift acc =
    let c = rd_byte r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then
      if acc < 0 then corrupt "negative varint at %d" r.pos else acc
    else if shift >= 56 then corrupt "varint overflow at %d" r.pos
    else go (shift + 7) acc
  in
  go 0 0

(* a count of items taking at least [size] bytes each, bounded by the
   bytes left so that no corrupt count reaches an allocation *)
let rd_count r ~size =
  let n = rd_varint r in
  if n > (String.length r.s - r.pos) / size then
    corrupt "count %d overruns at %d" n r.pos;
  n

let rd_zigzag r = unzigzag (rd_varint r)

let rd_event r =
  let c = rd_byte r in
  let tag = c land 3 and lo = (c lsr 2) land 0x1f in
  let zz = if c land 0x80 = 0 then lo else lo lor (rd_varint r lsl 5) in
  (tag, unzigzag zz)

let rd_string r =
  let len = rd_count r ~size:1 in
  let s = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

let rd_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits (Int64.shift_left (Int64.of_int (rd_byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let rd_value r : Interp.value =
  match rd_byte r with
  | 0 -> Interp.VUndef
  | 1 -> Interp.VInt (rd_zigzag r)
  | 2 -> Interp.VFloat (rd_float r)
  | 3 -> Interp.VBool (rd_byte r <> 0)
  | 4 ->
    let payload =
      match rd_byte r with
      | 0 -> Interp.IA (Array.init (rd_count r ~size:1) (fun _ -> rd_zigzag r))
      | 1 -> Interp.FA (Array.init (rd_count r ~size:8) (fun _ -> rd_float r))
      | k -> corrupt "bad array payload kind %d" k
    in
    let base = rd_varint r in
    let esize = rd_varint r in
    let mask32 = rd_byte r <> 0 in
    Interp.VArr { Interp.payload; base; esize; mask32 }
  | k -> corrupt "bad value tag %d" k

let decode (s : string) : (t, string) result =
  try
    let r = { s; pos = 0 } in
    (match rd_byte r with
    | v when v = codec_version -> ()
    | v -> corrupt "codec version %d (want %d)" v codec_version);
    let n = rd_count r ~size:1 in
    let events = Array.make n 0 in
    let last = Array.make 4 0 in
    for i = 0 to n - 1 do
      let tag, d = rd_event r in
      let v = last.(tag) + d in
      if v < 0 then corrupt "negative payload at event %d" i;
      last.(tag) <- v;
      events.(i) <- (v lsl 2) lor tag
    done;
    let nsig = rd_count r ~size:3 in
    let sig_dst = Array.make nsig 0 in
    let sig_u0 = Array.make nsig 0 in
    let sig_u1 = Array.make nsig 0 in
    for i = 0 to nsig - 1 do
      sig_dst.(i) <- rd_zigzag r;
      sig_u0.(i) <- rd_varint r;
      sig_u1.(i) <- rd_varint r
    done;
    let max_reg = rd_varint r in
    let sentinel = max_reg + 1 in
    let sig_uses =
      Array.init nsig (fun i ->
          if sig_u0.(i) = sentinel then [||]
          else if sig_u1.(i) = sentinel then [| sig_u0.(i) |]
          else [| sig_u0.(i); sig_u1.(i) |])
    in
    let nbank = rd_count r ~size:1 in
    let base = Array.init nbank (fun _ -> rd_varint r) in
    let outcome =
      match rd_byte r with
      | 0 -> Finished
      | 1 -> Trapped (rd_string r)
      | 2 -> Exhausted
      | k -> corrupt "bad outcome tag %d" k
    in
    let ret = rd_value r in
    let output = rd_string r in
    let steps = rd_varint r in
    if r.pos <> String.length s then
      corrupt "%d trailing bytes" (String.length s - r.pos);
    Ok
      {
        events;
        n;
        sig_uses;
        sig_dst;
        sig_u0;
        sig_u1;
        max_reg;
        base;
        outcome;
        ret;
        output;
        steps;
      }
  with Corrupt m -> Error m

(* bit-exact trace equality (floats compared by bit pattern); the
   events *capacity* is allowed to differ — only [0, n) is meaningful *)
let equal (a : t) (b : t) =
  let feq x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let veq (x : Interp.value) (y : Interp.value) =
    match (x, y) with
    | Interp.VFloat f, Interp.VFloat g -> feq f g
    | Interp.VArr u, Interp.VArr v -> (
      u.Interp.base = v.Interp.base
      && u.Interp.esize = v.Interp.esize
      && u.Interp.mask32 = v.Interp.mask32
      &&
      match (u.Interp.payload, v.Interp.payload) with
      | Interp.IA p, Interp.IA q -> p = q
      | Interp.FA p, Interp.FA q ->
        Array.length p = Array.length q
        && Array.for_all2 feq p q
      | _ -> false)
    | _ -> x = y
  in
  a.n = b.n
  && (let rec same i = i >= a.n || (a.events.(i) = b.events.(i) && same (i + 1)) in
      same 0)
  && a.sig_uses = b.sig_uses
  && a.sig_dst = b.sig_dst
  && a.sig_u0 = b.sig_u0
  && a.sig_u1 = b.sig_u1
  && a.max_reg = b.max_reg
  && a.base = b.base
  && a.outcome = b.outcome
  && veq a.ret b.ret
  && a.output = b.output
  && a.steps = b.steps
