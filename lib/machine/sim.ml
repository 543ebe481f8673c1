module Ir = Mira.Ir
module Interp = Mira.Interp

(* Cycle-level machine simulator.

   The flat engine runs Decode's dispatch loop with Flatsim's model; the
   reference engine below runs the plain interpreter (Mira.Interp) with
   hooks that account time and hardware events:

   - simple integer ALU ops are bundled [issue_width] per cycle (a static
     in-order multiple-issue model, VLIW-flavoured for the c6713 preset);
   - multiplies, divides and FP ops cost their configured latencies;
   - loads/stores go through the L1D/L2 hierarchy (write-allocate,
     write-back; dirty evictions from L1 generate L2 write traffic);
   - conditional branches consult a bimodal predictor keyed by branch site;
     mispredictions pay the pipeline-flush penalty;
   - calls pay a fixed linkage overhead.

   The model is deterministic: same program + config => same cycle count,
   which the experiments rely on (DESIGN.md, decision 2). *)

type result = Flatsim.result = {
  cycles : int;
  counters : Counters.bank;
  ret : Interp.value;
  output : string;
  steps : int;
}

type state = {
  cfg : Config.t;
  bank : Counters.bank;
  l1 : Cache.t;
  l2 : Cache.t;
  bp : Predictor.t;
  mutable cycles : int;
  mutable bundle : int;      (* simple ops issued in the current cycle *)
  mutable bundle_id : int;   (* serial number of the current bundle *)
  mutable stamps : int array; (* register -> bundle id of its last write *)
}

let mk_state cfg =
  {
    cfg;
    bank = Counters.make ();
    l1 = Cache.make cfg.Config.l1;
    l2 = Cache.make cfg.Config.l2;
    bp = Predictor.make ~size:cfg.Config.predictor_size ();
    cycles = 0;
    bundle = 0;
    bundle_id = 1;
    stamps = Array.make 256 0;
  }

let ensure_stamp st r =
  if r >= Array.length st.stamps then begin
    let n = Array.make (max (r + 1) (2 * Array.length st.stamps)) 0 in
    Array.blit st.stamps 0 n 0 (Array.length st.stamps);
    st.stamps <- n
  end

let close_bundle st =
  if st.bundle > 0 then st.cycles <- st.cycles + 1;
  st.bundle <- 0;
  st.bundle_id <- st.bundle_id + 1

(* Issue a simple single-cycle op into the current bundle.  The issue model
   is dependence-limited static multiple-issue (VLIW-flavoured): an op that
   reads a register written earlier in the *same* bundle cannot pack with
   its producer and starts a new cycle.  This is what makes scalar cleanup
   (copy propagation, CSE, dead movs) worth real cycles: shorter dependence
   chains pack tighter. *)
let issue_simple st ~(uses : int list) ~(def : int option) =
  let dep =
    List.exists
      (fun r -> r < Array.length st.stamps && st.stamps.(r) = st.bundle_id)
      uses
  in
  if dep then close_bundle st;
  st.bundle <- st.bundle + 1;
  (match def with
   | Some d ->
     ensure_stamp st d;
     st.stamps.(d) <- st.bundle_id
   | None -> ());
  if st.bundle >= st.cfg.Config.issue_width then close_bundle st

(* a long-latency or serializing op closes the current bundle *)
let issue_long st lat =
  close_bundle st;
  st.cycles <- st.cycles + lat

let mem_access st ~write addr =
  let b = st.bank in
  Counters.incr b Counters.L1_TCA;
  let o1 = Cache.access st.l1 ~addr ~write in
  let lat = ref st.cfg.Config.l1_lat in
  (if not o1.Cache.hit then begin
     Counters.incr b Counters.L1_TCM;
     Counters.incr b (if write then Counters.L1_STM else Counters.L1_LDM);
     Counters.incr b Counters.L2_TCA;
     let o2 = Cache.access st.l2 ~addr ~write:false in
     lat := !lat + st.cfg.Config.l2_lat;
     if not o2.Cache.hit then begin
       Counters.incr b Counters.L2_TCM;
       Counters.incr b (if write then Counters.L2_STM else Counters.L2_LDM);
       lat := !lat + st.cfg.Config.mem_lat
     end;
     (* dirty line displaced from L1 is written into L2 *)
     match o1.Cache.writeback with
     | Some wb_addr ->
       Counters.incr b Counters.L2_TCA;
       let o2w = Cache.access st.l2 ~addr:wb_addr ~write:true in
       if not o2w.Cache.hit then begin
         Counters.incr b Counters.L2_TCM;
         Counters.incr b Counters.L2_STM
       end
     | None -> ()
   end);
  issue_long st !lat

let on_instr st (i : Ir.instr) =
  let b = st.bank in
  Counters.incr b Counters.TOT_INS;
  match i with
  | Ir.Bin (op, _, _, _) -> begin
    Counters.incr b Counters.INT_INS;
    match op with
    | Ir.Mul ->
      Counters.incr b Counters.MUL_INS;
      issue_long st st.cfg.Config.lat_mul
    | Ir.Div | Ir.Rem ->
      Counters.incr b Counters.DIV_INS;
      issue_long st st.cfg.Config.lat_div
    | _ -> issue_simple st ~uses:(Ir.uses_of i) ~def:(Ir.def_of i)
  end
  | Ir.Fbin (op, _, _, _) -> begin
    Counters.incr b Counters.FP_INS;
    match op with
    | Ir.FAdd | Ir.FSub -> issue_long st st.cfg.Config.lat_fadd
    | Ir.FMul -> issue_long st st.cfg.Config.lat_fmul
    | Ir.FDiv -> issue_long st st.cfg.Config.lat_fdiv
  end
  | Ir.Fcmp _ ->
    Counters.incr b Counters.FP_INS;
    issue_long st st.cfg.Config.lat_fadd
  | Ir.Icmp _ | Ir.Not _ | Ir.Mov _ | Ir.Alen _ ->
    Counters.incr b Counters.INT_INS;
    issue_simple st ~uses:(Ir.uses_of i) ~def:(Ir.def_of i)
  | Ir.I2f _ | Ir.F2i _ ->
    Counters.incr b Counters.FP_INS;
    issue_long st st.cfg.Config.lat_fadd
  | Ir.Load _ ->
    (* address arithmetic is folded into the access latency *)
    Counters.incr b Counters.LD_INS
  | Ir.Store _ -> Counters.incr b Counters.SR_INS
  | Ir.Call _ ->
    Counters.incr b Counters.CALL_INS;
    issue_long st st.cfg.Config.call_overhead
  | Ir.Print _ -> issue_long st st.cfg.Config.print_cost

let on_branch st site taken =
  let b = st.bank in
  Counters.incr b Counters.BR_INS;
  if taken then Counters.incr b Counters.BR_TKN;
  let mis = Predictor.update st.bp site ~taken in
  let cost =
    st.cfg.Config.branch_cost
    + if mis then st.cfg.Config.mispredict_penalty else 0
  in
  if mis then Counters.incr b Counters.BR_MSP;
  issue_long st cost

let hooks_of st : Interp.hooks =
  {
    Interp.on_instr = (fun i -> on_instr st i);
    on_load = (fun addr -> mem_access st ~write:false addr);
    on_store = (fun addr -> mem_access st ~write:true addr);
    on_branch = (fun site taken -> on_branch st site taken);
    on_jump = (fun () -> issue_long st st.cfg.Config.jump_cost);
  }

let default_fuel = 200_000_000

(* Observability: every simulated execution is a span — "flatsim.run" or
   "refsim.run" — whose end event carries cycles, steps and the full
   counter-bank snapshot; wall time lands in sim.execute_ms (the
   histogram `run --profile` reads) and cycle counts in sim.cycles. *)
let execute_ms = Obs.Metrics.histogram "sim.execute_ms"
let cycles_hist = Obs.Metrics.histogram ~unit_:"cycles" "sim.cycles"
let ref_runs = Obs.Metrics.counter "sim.runs.ref"
let flat_runs = Obs.Metrics.counter "sim.runs.flat"

let result_args (r : result) =
  ("cycles", Obs.Trace.Int r.cycles)
  :: ("steps", Obs.Trace.Int r.steps)
  :: List.map
       (fun (n, v) -> (n, Obs.Trace.Int v))
       (Counters.to_assoc r.counters)

(* The flat engine is bit-identical to the hooked reference interpreter
   (the differential tests enforce it), so it is the default; [Ref]
   remains for oracle runs and A/B debugging. *)
type engine = Ref | Flat

(* Reference path: the hooked interpreter over the program AST. *)
let run_ref ~config ~fuel (p : Ir.program) : result =
  Obs.Metrics.incr ref_runs;
  let go () =
    let st = mk_state config in
    let r = Interp.run ~fuel ~hooks:(hooks_of st) p in
    (* drain the trailing partially-filled bundle *)
    if st.bundle > 0 then st.cycles <- st.cycles + 1;
    Counters.set st.bank Counters.TOT_CYC st.cycles;
    {
      cycles = st.cycles;
      counters = st.bank;
      ret = r.Interp.ret;
      output = r.Interp.output;
      steps = r.Interp.steps;
    }
  in
  let r =
    Obs.span_with ~cat:"sim" ~hist:execute_ms "refsim.run"
      ~end_args:result_args go
  in
  Obs.Metrics.observe cycles_hist (float_of_int r.cycles);
  r

let run_flatsim ~config ~fuel dp : result =
  Obs.Metrics.incr flat_runs;
  let r =
    Obs.span_with ~cat:"flatsim" ~hist:execute_ms "flatsim.run"
      ~end_args:result_args (fun () -> Flatsim.run ~config ~fuel dp)
  in
  Obs.Metrics.observe cycles_hist (float_of_int r.cycles);
  r

(* Flat path: decode once (a "decode" span of its own), run Decode's
   loop with Flatsim's model under a "flatsim" span. *)
let run_flat ~config ~fuel (p : Ir.program) : result =
  run_flatsim ~config ~fuel (Mira.Decode.decode p)

(* Run [p] on the simulated machine.  Raises the engine's exceptions
   (Trap, Out_of_fuel) like the plain interpreter. *)
let run ?(engine = Flat) ?(config = Config.default) ?(fuel = default_fuel)
    (p : Ir.program) : result =
  match engine with
  | Ref -> run_ref ~config ~fuel p
  | Flat -> run_flat ~config ~fuel p

(* Price one program against a whole architecture grid: one semantic
   execution (trace generation), then one model replay per config, each
   a sequential fold over the whole trace (Replay.run_grid). *)
let run_grid ?(fuel = default_fuel) ~(configs : Config.t array)
    (p : Ir.program) : result array =
  Replay.run_grid ~configs (Mtrace.generate ~fuel (Mira.Decode.decode p))

(* run a pre-decoded program (callers that execute the same program many
   times, e.g. the benchmarks, pay the decode cost once) *)
let run_decoded ?(config = Config.default) ?(fuel = default_fuel) dp : result =
  run_flatsim ~config ~fuel dp

(* Outcome of a run for callers that must react to the failure mode:
   a fuel-exhausted sequence will exhaust fuel again on retry, while a
   trap may be specific to the optimization under test. *)
type outcome = Cycles of int | Trapped of string | Exhausted

let cycles_of ?engine ?config ?fuel p : outcome =
  match run ?engine ?config ?fuel p with
  | r -> Cycles r.cycles
  | exception Interp.Trap m -> Trapped m
  | exception Interp.Out_of_fuel -> Exhausted

let speedup ~(base : result) ~(opt : result) : float =
  float_of_int base.cycles /. float_of_int (max 1 opt.cycles)
