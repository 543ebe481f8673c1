module Interp = Mira.Interp
module D = Mira.Decode

(* Trace-once half of the trace-once/model-many split (see DESIGN.md
   "Trace-once, model-many").  This is Decode.Exec's dispatch loop with
   event emission in place of the model hooks, plus an event per
   simple-issue op: one run of a decoded program records everything the
   machine model consumes — instruction-class retirements with their
   use-arrays, load/store byte addresses, branch sites with taken bits,
   call/print/jump serializers — as one packed int per event, in
   program order.  Replay folds that stream through Flatsim's model code
   once per config.

   Nothing here reads Config.t: the dynamic instruction and memory
   reference stream of a program is a property of the program alone, so
   one trace prices any architecture grid.  The config-independent
   counters (TOT_INS, LD_INS, ..., BR_TKN) are accumulated into [base]
   at generation time and copied into every replay's bank, leaving only
   the config-dependent ones (TOT_CYC, BR_MSP, cache counters) to the
   replay pass.

   The execution arms mirror Decode.Exec line for line; in particular
   every event is emitted where Decode.Exec fires the matching hook (a
   simple op's before its operands are read), so a trapping run leaves
   exactly the prefix of events accounted before the trap. *)

(* ------------------------------------------------------------------ *)
(* Event encoding: one int per word, tag in the low 2 bits.

     tag 0 (simple)  payload = (issue-signature id << 8) | (run - 1):
                     a run of [run] consecutive simple-issue events whose
                     signature ids are id, id+1, ...  Signature ids are
                     assigned in static code order, so straight-line
                     stretches of simple ops — the common case — coalesce
                     into one word.  A run never spans another event.
     tag 1 (long)    payload = ((run - 1) << 3) | latency class (cls_*
                     below): a run of [run] consecutive long-latency
                     events of one class — FP-heavy straight-line code
                     produces them — which the replay folds in O(1)
                     (one bundle drain, then pure cycle arithmetic).
                     A run never spans another event.
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

(* latency classes for tag_long events: Decode's, priced per config by
   Flatsim.lat_table *)
let cls_mul = D.cls_mul
let cls_div = D.cls_div
let cls_fadd = D.cls_fadd
let cls_fmul = D.cls_fmul
let cls_fdiv = D.cls_fdiv
let cls_call = D.cls_call
let cls_print = D.cls_print
let cls_jump = D.cls_jump
let cls_count = D.cls_count

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
(* Generation state *)

type gt = {
  mutable ev : int array;
  mutable n : int;
  (* pending run of consecutive simple events, not yet written out:
     start signature id (-1 = none) and length so far *)
  mutable run_sid : int;
  mutable run_len : int;
  (* pending run of consecutive same-class long events (-1 = none).
     At most one of the two run kinds is pending at any moment: each
     emitter flushes the other kind before extending its own. *)
  mutable lrun_cls : int;
  mutable lrun_len : int;
  base : Counters.bank;
  (* per function, per pc: issue-signature id of a simple-issue op, -1
     otherwise.  Built once per generation from the static code; gives
     the hot loop an O(1) signature lookup and the trace a side table
     replays index into. *)
  sigmap : int array array;
  sig_uses : int array array;
  sig_dst : int array;
  max_reg : int;
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

let[@inline] flush_run (g : gt) =
  if g.run_sid >= 0 then begin
    emit g
      ((((g.run_sid lsl run_bits) lor (g.run_len - 1)) lsl 2) lor tag_simple);
    g.run_sid <- -1;
    g.run_len <- 0
  end

let[@inline] flush_lrun (g : gt) =
  if g.lrun_cls >= 0 then begin
    emit g
      (((((g.lrun_len - 1) lsl cls_bits) lor g.lrun_cls) lsl 2) lor tag_long);
    g.lrun_cls <- -1;
    g.lrun_len <- 0
  end

(* signature ids follow static code order, so a straight-line stretch of
   simple ops presents consecutive ids — extend the pending run; any
   other event (or a control transfer landing elsewhere) breaks it *)
let[@inline] emit_simple g sid =
  flush_lrun g;
  if g.run_sid >= 0 && sid = g.run_sid + g.run_len && g.run_len < run_max
  then g.run_len <- g.run_len + 1
  else begin
    flush_run g;
    g.run_sid <- sid;
    g.run_len <- 1
  end

let[@inline] emit_long g cls =
  if g.lrun_cls = cls && g.lrun_len < lrun_max then
    g.lrun_len <- g.lrun_len + 1
  else begin
    flush_run g;
    flush_lrun g;
    g.lrun_cls <- cls;
    g.lrun_len <- 1
  end

let[@inline] emit_mem g ~write addr =
  flush_run g;
  flush_lrun g;
  emit g ((((addr lsl 1) lor if write then 1 else 0) lsl 2) lor tag_mem)

let[@inline] emit_branch g site taken =
  flush_run g;
  flush_lrun g;
  emit g ((((site lsl 1) lor if taken then 1 else 0) lsl 2) lor tag_branch)

let mk_gt (dp : D.t) : gt =
  let nsig = ref 0 in
  Array.iter
    (fun (df : D.dfunc) ->
      Array.iter (fun di -> if D.is_simple di.D.op then incr nsig) df.D.code)
    dp.D.funcs;
  let sig_uses = Array.make (max 1 !nsig) [||] in
  let sig_dst = Array.make (max 1 !nsig) (-1) in
  let next = ref 0 in
  (* the largest register id any recorded signature can present; lets
     the replay pre-size its stamp tables and skip per-event checks *)
  let max_reg = ref 0 in
  let sigmap =
    Array.map
      (fun (df : D.dfunc) ->
        Array.map
          (fun di ->
            if D.is_simple di.D.op then begin
              let id = !next in
              incr next;
              sig_uses.(id) <- di.D.uses;
              sig_dst.(id) <- di.D.dst;
              if di.D.dst > !max_reg then max_reg := di.D.dst;
              Array.iter
                (fun r -> if r > !max_reg then max_reg := r)
                di.D.uses;
              id
            end
            else -1)
          df.D.code)
      dp.D.funcs
  in
  {
    ev = Array.make 4096 0;
    n = 0;
    run_sid = -1;
    run_len = 0;
    lrun_cls = -1;
    lrun_len = 0;
    base = Counters.make ();
    sigmap;
    sig_uses;
    sig_dst;
    max_reg = !max_reg;
  }

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

let[@inline] bump (b : Counters.bank) i =
  Array.unsafe_set b i (Array.unsafe_get b i + 1)

(* ------------------------------------------------------------------ *)
(* The dispatch loop: Decode.Exec with the hooks replaced by events and
   the config-independent counters bumped per op.  A semantics change
   in Decode.Exec needs a mirror change here (the differential tests
   catch divergence). *)

let rec exec (rt : D.rt) (g : gt) (fr : D.frame) (sigrow : int array) : unit =
  let code = fr.D.df.D.code in
  let bank = g.base in
  let pc = ref fr.D.df.D.entry_pc in
  let running = ref true in
  while !running do
    let at = !pc in
    let di = Array.unsafe_get code at in
    rt.D.fuel <- rt.D.fuel - 1;
    rt.D.steps <- rt.D.steps + 1;
    if rt.D.fuel <= 0 then raise Interp.Out_of_fuel;
    incr pc;
    match di.D.op with
    | D.OAdd ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      D.set_int fr di.D.dst (a + b)
    | D.OSub ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      D.set_int fr di.D.dst (a - b)
    | D.OMul ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      bump bank c_mul_ins;
      emit_long g cls_mul;
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      D.set_int fr di.D.dst (a * b)
    | D.ODiv ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      bump bank c_div_ins;
      emit_long g cls_div;
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      if b = 0 then D.trap "division by zero" else D.set_int fr di.D.dst (a / b)
    | D.ORem ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      bump bank c_div_ins;
      emit_long g cls_div;
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      if b = 0 then D.trap "remainder by zero"
      else D.set_int fr di.D.dst (a mod b)
    | D.OAnd ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      D.set_int fr di.D.dst (a land b)
    | D.OOr ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      D.set_int fr di.D.dst (a lor b)
    | D.OXor ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      D.set_int fr di.D.dst (a lxor b)
    | D.OShl ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      if D.shift_ok b then D.set_int fr di.D.dst (a lsl b)
      else D.trap "shift count %d" b
    | D.OShr ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let b = D.geti rt fr di.D.bk di.D.b in
      let a = D.geti rt fr di.D.ak di.D.a in
      if D.shift_ok b then D.set_int fr di.D.dst (a asr b)
      else D.trap "shift count %d" b
    | D.OFAdd ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      let b = D.getf rt fr di.D.bk di.D.b in
      let a = D.getf rt fr di.D.ak di.D.a in
      D.set_flt fr di.D.dst (a +. b)
    | D.OFSub ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      let b = D.getf rt fr di.D.bk di.D.b in
      let a = D.getf rt fr di.D.ak di.D.a in
      D.set_flt fr di.D.dst (a -. b)
    | D.OFMul ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fmul;
      let b = D.getf rt fr di.D.bk di.D.b in
      let a = D.getf rt fr di.D.ak di.D.a in
      D.set_flt fr di.D.dst (a *. b)
    | D.OFDiv ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fdiv;
      let b = D.getf rt fr di.D.bk di.D.b in
      let a = D.getf rt fr di.D.ak di.D.a in
      D.set_flt fr di.D.dst (a /. b)
    | D.OIeq ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      D.do_icmp rt fr di 0
    | D.OIne ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      D.do_icmp rt fr di 1
    | D.OIlt ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      D.do_icmp rt fr di 2
    | D.OIle ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      D.do_icmp rt fr di 3
    | D.OIgt ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      D.do_icmp rt fr di 4
    | D.OIge ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      D.do_icmp rt fr di 5
    | D.OFeq ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      D.do_fcmp rt fr di 0
    | D.OFne ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      D.do_fcmp rt fr di 1
    | D.OFlt ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      D.do_fcmp rt fr di 2
    | D.OFle ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      D.do_fcmp rt fr di 3
    | D.OFgt ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      D.do_fcmp rt fr di 4
    | D.OFge ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      D.do_fcmp rt fr di 5
    | D.ONot ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let x = D.getb rt fr di.D.ak di.D.a in
      D.set_bool fr di.D.dst (not x)
    | D.OMov ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      D.eval_any rt fr di.D.ak di.D.a;
      D.set_scratch rt fr di.D.dst
    | D.OI2f ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      let a = D.geti rt fr di.D.ak di.D.a in
      D.set_flt fr di.D.dst (float_of_int a)
    | D.OF2i ->
      bump bank c_tot_ins;
      bump bank c_fp_ins;
      emit_long g cls_fadd;
      let f = D.getf rt fr di.D.ak di.D.a in
      if Float.is_nan f || Float.abs f > 4.6e18 then
        D.trap "float-to-int overflow on %g" f
      else D.set_int fr di.D.dst (int_of_float f)
    | D.OLoad ->
      bump bank c_tot_ins;
      bump bank c_ld_ins;
      let ix = D.geti rt fr di.D.bk di.D.b in
      let a = D.geta rt fr di.D.ak di.D.a in
      let len = D.arr_len a in
      if ix < 0 || ix >= len then
        D.trap "load out of bounds: index %d, length %d" ix len;
      emit_mem g ~write:false (a.Interp.base + (ix * a.Interp.esize));
      (match a.Interp.payload with
      | Interp.IA x -> D.set_int fr di.D.dst (Array.unsafe_get x ix)
      | Interp.FA x -> D.set_flt fr di.D.dst (Array.unsafe_get x ix))
    | D.OStore ->
      bump bank c_tot_ins;
      bump bank c_sr_ins;
      D.eval_any rt fr di.D.ck di.D.c;
      let vtag = rt.D.s_tag in
      let vi = rt.D.s_int and vf = rt.D.s_flt in
      let ix = D.geti rt fr di.D.bk di.D.b in
      let a = D.geta rt fr di.D.ak di.D.a in
      let len = D.arr_len a in
      if ix < 0 || ix >= len then
        D.trap "store out of bounds: index %d, length %d" ix len;
      (* the cache sees the store before the element-type check, exactly
         like the reference's on_store hook *)
      emit_mem g ~write:true (a.Interp.base + (ix * a.Interp.esize));
      (match a.Interp.payload with
      | Interp.IA x ->
        if vtag = 1 then
          Array.unsafe_set x ix
            (if a.Interp.mask32 then vi land 0xFFFFFFFF else vi)
        else D.trap "storing non-int into int array"
      | Interp.FA x ->
        if vtag = 2 then Array.unsafe_set x ix vf
        else D.trap "storing non-float into float array")
    | D.OAlen ->
      bump bank c_tot_ins;
      bump bank c_int_ins;
      emit_simple g (Array.unsafe_get sigrow at);
      let a = D.geta rt fr di.D.ak di.D.a in
      D.set_int fr di.D.dst (D.arr_len a)
    | D.OCall ->
      bump bank c_tot_ins;
      bump bank c_call_ins;
      emit_long g cls_call;
      let args = di.D.args in
      let nargs = Array.length args / 2 in
      for j = 0 to nargs - 1 do
        D.eval_any rt fr
          (Array.unsafe_get args (2 * j))
          (Array.unsafe_get args ((2 * j) + 1));
        D.save_arg rt j
      done;
      if di.D.callee < 0 then D.trap "call to unknown function %s" di.D.sname;
      do_call rt g di.D.callee nargs;
      if di.D.dst >= 0 then D.set_scratch rt fr di.D.dst
    | D.OPrint ->
      bump bank c_tot_ins;
      emit_long g cls_print;
      D.eval_any rt fr di.D.ak di.D.a;
      Buffer.add_string rt.D.buf
        (match rt.D.s_tag with
        | 1 -> string_of_int rt.D.s_int
        | 2 -> Printf.sprintf "%.6g" rt.D.s_flt
        | 3 -> if rt.D.s_int <> 0 then "true" else "false"
        | _ -> "<array>");
      Buffer.add_char rt.D.buf '\n'
    | D.OJmp ->
      emit_long g cls_jump;
      pc := di.D.dst
    | D.OBr ->
      (* condition evaluates (and may trap) before any branch
         accounting, like the reference's [as_bool] before on_branch *)
      let taken = D.getb rt fr di.D.ak di.D.a in
      bump bank c_br_ins;
      if taken then bump bank c_br_tkn;
      emit_branch g di.D.c taken;
      pc := if taken then di.D.dst else di.D.b
    | D.ORetN ->
      emit_long g cls_jump;
      rt.D.s_tag <- 0;
      running := false
    | D.ORetV ->
      (* on_jump fires before the return operand is evaluated *)
      emit_long g cls_jump;
      D.eval_any rt fr di.D.ak di.D.a;
      running := false
    | D.OBadLabel ->
      raise
        (Invalid_argument
           (Printf.sprintf "Ir.find_block: no block %d in %s" di.D.a
              fr.D.df.D.fname))
  done

and do_call (rt : D.rt) (g : gt) fidx nargs : unit =
  let df = rt.D.dp.D.funcs.(fidx) in
  if nargs <> Array.length df.D.params then
    D.trap "arity mismatch calling %s" df.D.fname;
  let fr = D.new_frame rt.D.dp fidx in
  D.bind_params rt fr nargs;
  let saved_sp = rt.D.sp in
  fr.D.locals <- D.alloc_locals rt df;
  exec rt g fr g.sigmap.(fidx);
  rt.D.sp <- saved_sp

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
    if dp.D.main_idx < 0 then
      D.trap "call to unknown function %s" dp.D.main_name;
    let outcome, ret =
      match do_call rt g dp.D.main_idx 0 with
      | () -> (Finished, (D.result_of rt).Interp.ret)
      | exception Interp.Trap m -> (Trapped m, Interp.VUndef)
      | exception Interp.Out_of_fuel -> (Exhausted, Interp.VUndef)
    in
    (* a pending run (simple or long — never both) was accounted before
       the stop — write it *)
    flush_run g;
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
      ret;
      output = Buffer.contents rt.D.buf;
      steps = rt.D.steps;
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
