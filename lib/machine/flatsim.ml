module Interp = Mira.Interp
module D = Mira.Decode

(* Cycle-level simulator over Decode bytecode: Sim's machine model as
   the hooks of Decode.Exec, the one dispatch loop.  See flatsim.mli for
   the contract.  The accounting mirrors Sim.on_instr / on_branch /
   hooks_of; Decode.Exec fires each hook where the reference fires its
   accounting relative to the semantics, so a run's cycles and counters
   match Sim's whenever the run finishes.  The trace engine prices a
   recorded run with the same pieces: run_cycles for its run table,
   charge_blocks for its base bank and fold_stream for its memory and
   branch stream. *)

type result = {
  cycles : int;
  counters : Counters.bank;
  ret : Interp.value;
  output : string;
  steps : int;
}

(* timing state; machine parameters pre-extracted from Config.t so the
   hot loop reads flat record fields *)
type mt = {
  bank : Counters.bank;
  l1 : Cache.t;
  l2 : Cache.t;
  bp : Predictor.t;
  mutable cycles : int;
  issue_width : int;
  lat_mul : int;
  lat_div : int;
  lat_fadd : int;
  lat_fmul : int;
  lat_fdiv : int;
  branch_cost : int;
  jump_cost : int;
  mispredict_penalty : int;
  call_overhead : int;
  print_cost : int;
  l1_lat : int;
  l2_lat : int;
  mem_lat : int;
}

let mk_mt (cfg : Config.t) : mt =
  {
    bank = Counters.make ();
    l1 = Cache.make cfg.Config.l1;
    l2 = Cache.make cfg.Config.l2;
    bp = Predictor.make ~size:cfg.Config.predictor_size ();
    cycles = 0;
    issue_width = cfg.Config.issue_width;
    lat_mul = cfg.Config.lat_mul;
    lat_div = cfg.Config.lat_div;
    lat_fadd = cfg.Config.lat_fadd;
    lat_fmul = cfg.Config.lat_fmul;
    lat_fdiv = cfg.Config.lat_fdiv;
    branch_cost = cfg.Config.branch_cost;
    jump_cost = cfg.Config.jump_cost;
    mispredict_penalty = cfg.Config.mispredict_penalty;
    call_overhead = cfg.Config.call_overhead;
    print_cost = cfg.Config.print_cost;
    l1_lat = cfg.Config.l1_lat;
    l2_lat = cfg.Config.l2_lat;
    mem_lat = cfg.Config.mem_lat;
  }

(* Raw counter-bank slots (resolved once via Counters.to_index) bumped
   through a tiny helper the compiler inlines: the model touches
   counters once or more per memory access and branch, so the
   [Counters.incr] call pair (incr + to_index) is measurable at this
   granularity.  Every index is < Counters.count = bank length, so the
   unsafe accesses are in bounds. *)
let c_tot_ins = Counters.to_index Counters.TOT_INS
let c_ld_ins = Counters.to_index Counters.LD_INS
let c_sr_ins = Counters.to_index Counters.SR_INS
let c_br_ins = Counters.to_index Counters.BR_INS
let c_br_tkn = Counters.to_index Counters.BR_TKN
let c_br_msp = Counters.to_index Counters.BR_MSP
let c_fp_ins = Counters.to_index Counters.FP_INS
let c_int_ins = Counters.to_index Counters.INT_INS
let c_mul_ins = Counters.to_index Counters.MUL_INS
let c_div_ins = Counters.to_index Counters.DIV_INS
let c_call_ins = Counters.to_index Counters.CALL_INS
let c_l1_tca = Counters.to_index Counters.L1_TCA
let c_l1_tcm = Counters.to_index Counters.L1_TCM
let c_l1_ldm = Counters.to_index Counters.L1_LDM
let c_l1_stm = Counters.to_index Counters.L1_STM
let c_l2_tca = Counters.to_index Counters.L2_TCA
let c_l2_tcm = Counters.to_index Counters.L2_TCM
let c_l2_ldm = Counters.to_index Counters.L2_LDM
let c_l2_stm = Counters.to_index Counters.L2_STM

let[@inline] bump (b : Counters.bank) i =
  Array.unsafe_set b i (Array.unsafe_get b i + 1)

(* config-dependent half of a conditional branch: predictor update,
   misprediction accounting, cost.  The BR_INS/BR_TKN bumps stay with the
   caller — they are config-independent, so the trace engine accumulates
   them once at generation time while this half replays per config.
   The update logic is Predictor.update's, copied in-unit: dev builds
   compile with -opaque, so the cross-module call never inlines, and
   this runs once per dynamic conditional branch per config. *)
let[@inline] branch mt site ~taken =
  let bp = mt.bp in
  let tbl = bp.Predictor.table in
  bp.Predictor.lookups <- bp.Predictor.lookups + 1;
  let i =
    if bp.Predictor.mask >= 0 then site land bp.Predictor.mask
    else begin
      let n = Array.length tbl in
      let i = site mod n in
      if i < 0 then i + n else i
    end
  in
  let v = Array.unsafe_get tbl i in
  let mis = (v >= 2) <> taken in
  if mis then bp.Predictor.mispredicts <- bp.Predictor.mispredicts + 1;
  Array.unsafe_set tbl i
    (if taken then (if v < 3 then v + 1 else 3) else if v > 0 then v - 1 else 0);
  let cost = mt.branch_cost + if mis then mt.mispredict_penalty else 0 in
  if mis then bump mt.bank c_br_msp;
  mt.cycles <- mt.cycles + cost

(* pin TOT_CYC *)
let finish mt = Counters.set mt.bank Counters.TOT_CYC mt.cycles

(* Cache.access_fast with its hit scan copied in-unit (dev builds
   compile with -opaque, so the cross-module call never inlines, and
   this runs one to three times per memory event).  The straight-line
   scan covers the 1-, 2-, 4- and 8-way geometries every preset level
   uses; anything else takes Cache.access_fast wholesale, and misses
   land in Cache.fill — the shared miss path.  Same state evolution as
   Cache.access on every branch; the differential oracle (Ref prices
   through Cache.access) holds the copies together. *)
let[@inline] cache_access (c : Cache.t) ~(write : bool) (addr : int) : int =
  let assoc = c.Cache.cfg.Cache.assoc in
  if assoc > 2 && assoc <> 4 && assoc <> 8 then
    Cache.access_fast c ~addr ~write
  else begin
    c.Cache.accesses <- c.Cache.accesses + 1;
    c.Cache.clock <- c.Cache.clock + 1;
    let line = addr lsr c.Cache.line_shift in
    let set =
      if c.Cache.set_mask >= 0 then line land c.Cache.set_mask
      else line mod c.Cache.nsets
    in
    let tag =
      if c.Cache.set_mask >= 0 then line lsr c.Cache.set_shift
      else line / c.Cache.nsets
    in
    let ways = c.Cache.ways in
    let base = set * assoc * 3 in
    (* tag slots at stride 3; every index stays within
       [base, base + assoc * 3) <= length ways *)
    let w =
      if Array.unsafe_get ways base = tag then base
      else if assoc = 1 then -3
      else if Array.unsafe_get ways (base + 3) = tag then base + 3
      else if assoc = 2 then -3
      else if Array.unsafe_get ways (base + 6) = tag then base + 6
      else if Array.unsafe_get ways (base + 9) = tag then base + 9
      else if assoc = 4 then -3
      else if Array.unsafe_get ways (base + 12) = tag then base + 12
      else if Array.unsafe_get ways (base + 15) = tag then base + 15
      else if Array.unsafe_get ways (base + 18) = tag then base + 18
      else if Array.unsafe_get ways (base + 21) = tag then base + 21
      else -3
    in
    if w >= 0 then begin
      Array.unsafe_set ways (w + 1) c.Cache.clock;
      if write then Array.unsafe_set ways (w + 2) 1;
      Cache.hit
    end
    else Cache.fill c ~set ~tag ~write
  end

(* same cache-state evolution and counter order as the original
   Cache.access-based version, through the allocation-free encoding
   (this runs once or twice per memory event) *)
let mem_access mt ~write addr =
  let b = mt.bank in
  bump b c_l1_tca;
  let r1 = cache_access mt.l1 ~write addr in
  if r1 = Cache.hit then mt.cycles <- mt.cycles + mt.l1_lat
  else begin
    bump b c_l1_tcm;
    bump b (if write then c_l1_stm else c_l1_ldm);
    bump b c_l2_tca;
    let r2 = cache_access mt.l2 ~write:false addr in
    let lat = ref (mt.l1_lat + mt.l2_lat) in
    if r2 <> Cache.hit then begin
      bump b c_l2_tcm;
      bump b (if write then c_l2_stm else c_l2_ldm);
      lat := !lat + mt.mem_lat
    end;
    (* dirty line displaced from L1 is written into L2 *)
    if r1 >= 0 then begin
      bump b c_l2_tca;
      let r2w = cache_access mt.l2 ~write:true r1 in
      if r2w <> Cache.hit then begin
        bump b c_l2_tcm;
        bump b c_l2_stm
      end
    end;
    mt.cycles <- mt.cycles + !lat
  end

(* per-config latency table, indexed by Decode's latency classes: the
   flat model's [long] hook and the replay's class counts both price a
   class through it *)
let lat_table (mt : mt) : int array =
  let t =
    [|
      mt.lat_mul;
      mt.lat_div;
      mt.lat_fadd;
      mt.lat_fmul;
      mt.lat_fdiv;
      mt.call_overhead;
      mt.print_cost;
      mt.jump_cost;
    |]
  in
  assert (Array.length t = D.cls_count);
  t

(* ------------------------------------------------------------------ *)
(* The flat engine's model.

   Simple-issue ops fire no hook.  Every run of them starts from an
   empty bundle, because it follows an op that closes the bundle (a
   long op, a memory access, a branch, a jump or return, a call's
   overhead) or the program start.  So a run's cycles depend only on
   its instructions and the issue width: [plan] computes them once per
   [run], and the op that ends the run charges them.  A block's class
   counters (TOT_INS, INT/FP/MUL/DIV, LD/SR, CALL, BR_INS) are static
   too: the hooks count each terminator's executions, and
   [charge_blocks] folds the counts into the bank when the run
   finishes.

   Both are exact for every run that finishes.  A run that traps or
   runs out of fuel raises out of [run], and its partial cycles and
   counters go with it. *)

(* Cycles of the [len] simple-issue ops at rows [first ..] of the
   (uses, dst) columns, issued from an empty bundle: Sim.issue_simple op
   by op, plus the drain of the last partial bundle, which the op that
   ends the run pays.  The bundle's defined registers are kept as a
   list, so a register id — negative or past [nregs] — is only ever
   compared, never an index. *)
let run_cycles ~(width : int) ~(uses : int array array) ~(dst : int array)
    first len =
  let cycles = ref 0 and bundle = ref 0 and defs = ref [] in
  let close () =
    if !bundle > 0 then incr cycles;
    bundle := 0;
    defs := []
  in
  for i = first to first + len - 1 do
    if Array.exists (fun (r : int) -> List.exists (( = ) r) !defs) uses.(i)
    then close ();
    incr bundle;
    defs := dst.(i) :: !defs;
    if !bundle >= width then close ()
  done;
  close ();
  !cycles

(* gpc -> [run_cycles] of the run of simple-issue ops that the op at gpc
   ends, with each function's code as the columns *)
let plan (dp : D.t) ~(width : int) : int array =
  let cyc = Array.make (D.code_size dp) 0 in
  Array.iter
    (fun (df : D.dfunc) ->
      let uses = Array.map (fun (di : D.dinstr) -> di.D.uses) df.D.code in
      let dst = Array.map (fun (di : D.dinstr) -> di.D.dst) df.D.code in
      let first = ref 0 in
      Array.iteri
        (fun pc (di : D.dinstr) ->
          if not (D.is_simple di.D.op) then begin
            cyc.(df.D.base + pc) <-
              run_cycles ~width ~uses ~dst !first (pc - !first);
            first := pc + 1
          end)
        df.D.code)
    dp.D.funcs;
  cyc

(* add every op's class counters, times the executions of its block's
   terminator.  Decode lays a block out as its instructions then its
   terminator, so walking a function backwards meets each block's
   terminator before the block's instructions. *)
let charge_blocks (dp : D.t) (visits : int array) (bank : Counters.bank) =
  let add i n = Array.unsafe_set bank i (Array.unsafe_get bank i + n) in
  Array.iter
    (fun (df : D.dfunc) ->
      let n = ref 0 in
      for pc = Array.length df.D.code - 1 downto 0 do
        let k = !n in
        match df.D.code.(pc).D.op with
        | D.OJmp | D.ORetN | D.ORetV -> n := visits.(df.D.base + pc)
        | D.OBr ->
          n := visits.(df.D.base + pc);
          add c_br_ins !n
        | D.OBadLabel -> n := 0
        | D.OAdd | D.OSub | D.OAnd | D.OOr | D.OXor | D.OShl | D.OShr
        | D.OIeq | D.OIne | D.OIlt | D.OIle | D.OIgt | D.OIge | D.ONot
        | D.OMov | D.OAlen ->
          add c_tot_ins k;
          add c_int_ins k
        | D.OMul ->
          add c_tot_ins k;
          add c_int_ins k;
          add c_mul_ins k
        | D.ODiv | D.ORem ->
          add c_tot_ins k;
          add c_int_ins k;
          add c_div_ins k
        | D.OFAdd | D.OFSub | D.OFMul | D.OFDiv | D.OFeq | D.OFne | D.OFlt
        | D.OFle | D.OFgt | D.OFge | D.OI2f | D.OF2i ->
          add c_tot_ins k;
          add c_fp_ins k
        | D.OLoad ->
          add c_tot_ins k;
          add c_ld_ins k
        | D.OStore ->
          add c_tot_ins k;
          add c_sr_ins k
        | D.OCall ->
          add c_tot_ins k;
          add c_call_ins k
        | D.OPrint -> add c_tot_ins k
      done)
    dp.D.funcs

type model = {
  mt : mt;
  cyc : int array;  (* [plan] *)
  lat : int array;  (* [lat_table] *)
  visits : int array;  (* gpc -> executions of the terminator there *)
}

(* Every gpc Decode.Exec passes is below [D.code_size], the length of
   [cyc] and [visits], and every class below [D.cls_count], the length
   of [lat]: the unsafe reads are in bounds. *)
module Model = struct
  type t = model

  let long m gpc cls =
    let mt = m.mt in
    mt.cycles <-
      mt.cycles + Array.unsafe_get m.cyc gpc + Array.unsafe_get m.lat cls

  let mem m gpc write addr =
    let mt = m.mt in
    mt.cycles <- mt.cycles + Array.unsafe_get m.cyc gpc;
    mem_access mt ~write addr

  (* the model-wide [branch] above does the predictor and BR_MSP *)
  let branch m gpc site taken =
    let mt = m.mt in
    mt.cycles <- mt.cycles + Array.unsafe_get m.cyc gpc;
    Array.unsafe_set m.visits gpc (Array.unsafe_get m.visits gpc + 1);
    if taken then bump mt.bank c_br_tkn;
    branch mt site ~taken

  let jump m gpc =
    let mt = m.mt in
    mt.cycles <- mt.cycles + Array.unsafe_get m.cyc gpc + mt.jump_cost;
    Array.unsafe_set m.visits gpc (Array.unsafe_get m.visits gpc + 1)
end

module Run = D.Exec (Model)

let run ~(config : Config.t) ~(fuel : int) (dp : D.t) : result =
  let mt = mk_mt config in
  let m =
    {
      mt;
      cyc = plan dp ~width:mt.issue_width;
      lat = lat_table mt;
      visits = Array.make (D.code_size dp) 0;
    }
  in
  let r = Run.run ~fuel m dp in
  charge_blocks dp m.visits mt.bank;
  finish mt;
  {
    cycles = mt.cycles;
    counters = mt.bank;
    ret = r.Interp.ret;
    output = r.Interp.output;
    steps = r.Interp.steps;
  }

(* ------------------------------------------------------------------ *)
(* The trace fold: Replay's hot loop, hosted in this compilation unit so
   that the per-word model calls above are direct and inlinable without
   flambda.  The word layout is Mtrace's: tag in the low 2 bits (2 mem /
   3 branch), payload above (mem: addr*2+write; branch: site*2+taken). *)

let fold_stream (mt : mt) (events : int array) : unit =
  for i = 0 to Array.length events - 1 do
    let w = Array.unsafe_get events i in
    let payload = w lsr 2 in
    match w land 3 with
    | 2 -> mem_access mt ~write:(payload land 1 = 1) (payload lsr 1)
    | _ -> branch mt (payload lsr 1) ~taken:(payload land 1 = 1)
  done
