(* Pre-decoded flat execution engine.

   [decode] translates an [Ir.program] once into a flat array bytecode;
   [Exec] is the one dispatch loop over it, on unboxed register files.
   [run] is that loop with no machine model; Mach.Flatsim (cycles) and
   Mach.Mtrace (event traces) are models on the same loop's hooks.  The
   contract is bit-identity with [Interp.run] under [no_hooks]: same
   return value, same printed output, same [steps], and the same trap
   (message included) at the same point.  Interp stays the semantics
   oracle; the differential tests in test_flat.ml and the fuzzer police
   the equivalence.

   Everything subtle here is about preserving the oracle's observable
   order of effects:

   - OCaml evaluates function/tuple arguments right-to-left, so the
     reference evaluates operand B before operand A in [Bin]/[Fbin]/
     [Icmp]/[Fcmp], and value-then-index-then-array in [Store].  The
     dispatch arms below fetch operands in exactly that order, because
     each fetch can trap (undefined register, unknown name, wrong type)
     and the *first* trap is the observable one.
   - For [Bin]/[Fbin], operand B's type-conversion trap fires before
     operand A is even read; for [Icmp] both operands are read first
     (tuple) and only then converted, again B first.  The arms mirror
     both shapes.
   - Lookup failures (unknown global/local/function) trap where the
     reference evaluates the name, not at decode time: unknown names are
     interned and compiled to trapping operand kinds.
   - A jump to a nonexistent block must raise the reference's
     [Invalid_argument] from [Ir.find_block].  Decode compiles such
     targets to a synthetic [OBadLabel] slot that raises the identical
     exception when (and only when) reached.  One knowable divergence:
     the flat engine charges the slot its fuel/steps tick before
     raising, so a program that exhausts fuel exactly at a missing label
     reports [Out_of_fuel] where the reference reports
     [Invalid_argument].  Only ill-formed programs (rejected by
     [Ir.check_program], never produced by lowering or passes) can
     reach this.
   - A simple-issue op with a negative register id raises the
     reference's [Invalid_argument] from its operand read or write, so
     an earlier operand's trap fires first.  The reference simulator
     raises it from its issue stamps, before any operand is read.  Only
     ill-formed programs (a "bad reg" or "bad def" in
     [Ir.check_program]) can reach this.

   Register files are a tag plan: per frame an [int array] of tags plus
   unboxed [int array]/[float array]/handle-array payloads.  A fully
   static type assignment from the typechecker would be faster still but
   unsound for our purposes: the differential fuzzer deliberately feeds
   both engines broken IR (bad pass outputs, mutated programs) whose
   type confusions and undefined-register reads must trap with the
   reference's exact messages.  The tag check is one array load and a
   predictable compare — cheap next to what it replaces (a boxed
   [value] match plus allocation per write). *)

type op =
  | OAdd | OSub | OMul | ODiv | ORem | OAnd | OOr | OXor | OShl | OShr
  | OFAdd | OFSub | OFMul | OFDiv
  | OIeq | OIne | OIlt | OIle | OIgt | OIge
  | OFeq | OFne | OFlt | OFle | OFgt | OFge
  | ONot | OMov | OI2f | OF2i
  | OLoad | OStore | OAlen | OCall | OPrint
  | OJmp
  | OBr
  | ORetN
  | ORetV
  | OBadLabel

let k_reg = 0
let k_int = 1
let k_flt = 2
let k_bool = 3
let k_glob = 4
let k_loc = 5
let k_gunk = 6
let k_lunk = 7
let k_none = 8

(* Latency classes of the ops that close an issue bundle and pay a
   configured latency; [Exec]'s [long] hook receives one, and
   Mach.Mtrace's long-run events carry the same numbers *)
let cls_mul = 0 (* Mul *)
let cls_div = 1 (* Div, Rem *)
let cls_fadd = 2 (* FP add/sub/compare, conversions *)
let cls_fmul = 3
let cls_fdiv = 4
let cls_call = 5
let cls_print = 6
let cls_jump = 7 (* Jmp, Ret: the [jump] hook's cost *)
let cls_count = 8

(* single-cycle ALU ops, which the machine model issues in bundles;
   every other op but [OBadLabel] fires one of [Exec]'s hooks *)
let is_simple = function
  | OAdd | OSub | OAnd | OOr | OXor | OShl | OShr | OIeq | OIne | OIlt
  | OIle | OIgt | OIge | ONot | OMov | OAlen ->
    true
  | _ -> false

type dinstr = {
  op : op;
  dst : int;
  ak : int;
  a : int;
  bk : int;
  b : int;
  ck : int;
  c : int;
  args : int array;
  callee : int;
  sname : string;
  uses : int array;
}

type dfunc = {
  fname : string;
  params : int array;
  nregs : int;
  code : dinstr array;
  entry_pc : int;
  base : int;
  locals : (string * Ir.elt * int) array;
}

type t = {
  funcs : dfunc array;
  main_idx : int;
  main_name : string;
  globals : Ir.global array;
  fpool : float array;
  names : string array;
  max_args : int;
  nsites : int;
}

(* ------------------------------------------------------------------ *)
(* Decoding *)

let nop =
  {
    op = ORetN;
    dst = -1;
    ak = k_none;
    a = 0;
    bk = k_none;
    b = 0;
    ck = k_none;
    c = 0;
    args = [||];
    callee = -1;
    sname = "";
    uses = [||];
  }

let decode_program (p : Ir.program) : t =
  (* float constants interned by bit pattern so -0.0 and NaN payloads
     survive the round trip *)
  let fpool = ref [] and fpool_n = ref 0 in
  let ftbl : (int64, int) Hashtbl.t = Hashtbl.create 16 in
  let intern_float f =
    let bits = Int64.bits_of_float f in
    match Hashtbl.find_opt ftbl bits with
    | Some i -> i
    | None ->
      let i = !fpool_n in
      Hashtbl.replace ftbl bits i;
      fpool := f :: !fpool;
      incr fpool_n;
      i
  in
  let names = ref [] and names_n = ref 0 in
  let ntbl : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let intern_name s =
    match Hashtbl.find_opt ntbl s with
    | Some i -> i
    | None ->
      let i = !names_n in
      Hashtbl.replace ntbl s i;
      names := s :: !names;
      incr names_n;
      i
  in
  (* name -> index maps; [replace] so a duplicate declaration shadows the
     earlier one, matching Hashtbl.replace in Interp.init_globals and in
     the reference frame setup *)
  let gtbl = Hashtbl.create 16 in
  List.iteri (fun i (g : Ir.global) -> Hashtbl.replace gtbl g.Ir.gname i) p.globals;
  let fun_list = Ir.SMap.bindings p.funcs in
  let funtbl = Hashtbl.create 16 in
  List.iteri (fun i (n, _) -> Hashtbl.replace funtbl n i) fun_list;
  let max_args = ref 0 in
  (* conditional-branch sites numbered in SMap x LMap iteration order —
     the same order Interp.build_sites assigns them, so the predictor
     state evolves identically in both engines *)
  let site_count = ref 0 in
  (* functions' code laid end to end, in SMap order: [base] is where
     each one starts *)
  let code_off = ref 0 in
  let decode_func (fname, (f : Ir.func)) : dfunc =
    let ltbl = Hashtbl.create 8 in
    List.iteri (fun i (n, _, _) -> Hashtbl.replace ltbl n i) f.Ir.locals;
    let blocks = Ir.LMap.bindings f.Ir.blocks in
    let starts = Hashtbl.create 16 in
    let off = ref 0 in
    List.iter
      (fun (l, (b : Ir.block)) ->
        Hashtbl.replace starts l !off;
        off := !off + List.length b.Ir.instrs + 1)
      blocks;
    let nreal = !off in
    (* jump targets that don't exist compile to synthetic trapping slots
       appended after the real code *)
    let badtbl = Hashtbl.create 2 in
    let bad_slots = ref [] in
    let target l =
      match Hashtbl.find_opt starts l with
      | Some pc -> pc
      | None -> (
        match Hashtbl.find_opt badtbl l with
        | Some pc -> pc
        | None ->
          let pc = nreal + Hashtbl.length badtbl in
          Hashtbl.replace badtbl l pc;
          bad_slots := l :: !bad_slots;
          pc)
    in
    let enc (o : Ir.operand) : int * int =
      match o with
      | Ir.Reg r -> (k_reg, r)
      | Ir.Cint n -> (k_int, n)
      | Ir.Cfloat f -> (k_flt, intern_float f)
      | Ir.Cbool b -> (k_bool, if b then 1 else 0)
      | Ir.AGlob g -> (
        match Hashtbl.find_opt gtbl g with
        | Some i -> (k_glob, i)
        | None -> (k_gunk, intern_name g))
      | Ir.ALoc n -> (
        match Hashtbl.find_opt ltbl n with
        | Some i -> (k_loc, i)
        | None -> (k_lunk, intern_name n))
    in
    let uses_arr i = Array.of_list (Ir.uses_of i) in
    let enc_instr (i : Ir.instr) : dinstr =
      match i with
      | Ir.Bin (aop, d, a, b) ->
        let op, simple =
          match aop with
          | Ir.Add -> (OAdd, true)
          | Ir.Sub -> (OSub, true)
          | Ir.Mul -> (OMul, false)
          | Ir.Div -> (ODiv, false)
          | Ir.Rem -> (ORem, false)
          | Ir.And -> (OAnd, true)
          | Ir.Or -> (OOr, true)
          | Ir.Xor -> (OXor, true)
          | Ir.Shl -> (OShl, true)
          | Ir.Shr -> (OShr, true)
        in
        let ak, a = enc a and bk, b = enc b in
        let uses = if simple then uses_arr i else [||] in
        { nop with op; dst = d; ak; a; bk; b; uses }
      | Ir.Fbin (fop, d, a, b) ->
        let op =
          match fop with
          | Ir.FAdd -> OFAdd
          | Ir.FSub -> OFSub
          | Ir.FMul -> OFMul
          | Ir.FDiv -> OFDiv
        in
        let ak, a = enc a and bk, b = enc b in
        { nop with op; dst = d; ak; a; bk; b }
      | Ir.Icmp (cop, d, a, b) ->
        let op =
          match cop with
          | Ir.Eq -> OIeq
          | Ir.Ne -> OIne
          | Ir.Lt -> OIlt
          | Ir.Le -> OIle
          | Ir.Gt -> OIgt
          | Ir.Ge -> OIge
        in
        let ak, a = enc a and bk, b = enc b in
        { nop with op; dst = d; ak; a; bk; b; uses = uses_arr i }
      | Ir.Fcmp (cop, d, a, b) ->
        let op =
          match cop with
          | Ir.Eq -> OFeq
          | Ir.Ne -> OFne
          | Ir.Lt -> OFlt
          | Ir.Le -> OFle
          | Ir.Gt -> OFgt
          | Ir.Ge -> OFge
        in
        let ak, a = enc a and bk, b = enc b in
        { nop with op; dst = d; ak; a; bk; b }
      | Ir.Not (d, a) ->
        let ak, a = enc a in
        { nop with op = ONot; dst = d; ak; a; uses = uses_arr i }
      | Ir.Mov (d, a) ->
        let ak, a = enc a in
        { nop with op = OMov; dst = d; ak; a; uses = uses_arr i }
      | Ir.I2f (d, a) ->
        let ak, a = enc a in
        { nop with op = OI2f; dst = d; ak; a }
      | Ir.F2i (d, a) ->
        let ak, a = enc a in
        { nop with op = OF2i; dst = d; ak; a }
      | Ir.Load (d, a, ix) ->
        let ak, a = enc a and bk, b = enc ix in
        { nop with op = OLoad; dst = d; ak; a; bk; b }
      | Ir.Store (a, ix, v) ->
        let ak, a = enc a and bk, b = enc ix and ck, c = enc v in
        { nop with op = OStore; ak; a; bk; b; ck; c }
      | Ir.Alen (d, a) ->
        let ak, a = enc a in
        { nop with op = OAlen; dst = d; ak; a; uses = uses_arr i }
      | Ir.Call (d, g, cargs) ->
        let n = List.length cargs in
        if n > !max_args then max_args := n;
        let args = Array.make (2 * n) 0 in
        List.iteri
          (fun j o ->
            let k, v = enc o in
            args.(2 * j) <- k;
            args.((2 * j) + 1) <- v)
          cargs;
        let callee =
          match Hashtbl.find_opt funtbl g with Some i -> i | None -> -1
        in
        let dst = match d with Some d -> d | None -> -1 in
        { nop with op = OCall; dst; args; callee; sname = g }
      | Ir.Print a ->
        let ak, a = enc a in
        { nop with op = OPrint; ak; a }
    in
    let enc_term (t : Ir.term) : dinstr =
      match t with
      | Ir.Jmp l -> { nop with op = OJmp; dst = target l }
      | Ir.Br (c, tl, el) ->
        let site = !site_count in
        incr site_count;
        let ak, a = enc c in
        { nop with op = OBr; dst = target tl; ak; a; b = target el; c = site }
      | Ir.Ret None -> { nop with op = ORetN }
      | Ir.Ret (Some v) ->
        let ak, a = enc v in
        { nop with op = ORetV; ak; a }
    in
    let body = ref [] in
    List.iter
      (fun (_, (b : Ir.block)) ->
        List.iter (fun i -> body := enc_instr i :: !body) b.Ir.instrs;
        body := enc_term b.Ir.term :: !body)
      blocks;
    (* bad slots were assigned pcs nreal, nreal+1, ... in discovery
       order; [bad_slots] is that list reversed *)
    List.iter
      (fun l -> body := { nop with op = OBadLabel; a = l } :: !body)
      (List.rev !bad_slots);
    let code = Array.of_list (List.rev !body) in
    let base = !code_off in
    code_off := base + Array.length code;
    {
      fname;
      params = Array.of_list f.Ir.params;
      nregs = f.Ir.nregs;
      code;
      entry_pc = target f.Ir.entry;
      base;
      locals = Array.of_list f.Ir.locals;
    }
  in
  (* explicit loop: site ids and code offsets must be assigned in SMap
     order *)
  let dfuncs = ref [] in
  List.iter (fun fb -> dfuncs := decode_func fb :: !dfuncs) fun_list;
  {
    funcs = Array.of_list (List.rev !dfuncs);
    main_idx =
      (match Hashtbl.find_opt funtbl p.main with Some i -> i | None -> -1);
    main_name = p.main;
    globals = Array.of_list p.globals;
    fpool = Array.of_list (List.rev !fpool);
    names = Array.of_list (List.rev !names);
    max_args = !max_args;
    nsites = !site_count;
  }

(* the one-time IR -> bytecode translation, as an Obs span (cat
   "decode") with the translated size as an end arg *)
let decode_ms = Obs.Metrics.histogram "decode.translate_ms"
let decode_count = Obs.Metrics.counter "decode.programs"

let decode (p : Ir.program) : t =
  Obs.Metrics.incr decode_count;
  Obs.span_with ~cat:"decode" ~hist:decode_ms "decode.translate"
    ~end_args:(fun dp ->
      [ ("funcs", Obs.Trace.Int (Array.length dp.funcs)) ])
    (fun () -> decode_program p)

let code_size (dp : t) =
  Array.fold_left (fun acc df -> acc + Array.length df.code) 0 dp.funcs

(* ------------------------------------------------------------------ *)
(* Runtime *)

let trap fmt = Fmt.kstr (fun s -> raise (Interp.Trap s)) fmt

let arr_len = Interp.arr_len

let dummy_arr =
  { Interp.payload = Interp.IA [||]; base = 0; esize = 8; mask32 = false }

(* same base addresses as Interp.init_globals: the machine simulator
   keys its caches on these *)
let init_globals (dp : t) : Interp.arr array =
  let addr = ref Interp.global_base in
  Array.map
    (fun (g : Ir.global) ->
      let a = Interp.global_arr ~base:!addr g in
      addr := !addr + Interp.align64 (g.Ir.gsize * a.Interp.esize);
      a)
    dp.globals

type frame = {
  df : dfunc;
  tags : int array;
  ints : int array;
  flts : float array;
  arrs : Interp.arr array;
  mutable locals : Interp.arr array;
}

type rt = {
  dp : t;
  garr : Interp.arr array;
  buf : Buffer.t;
  mutable fuel : int;
  mutable steps : int;
  mutable sp : int;
  mutable s_tag : int;
  mutable s_int : int;
  mutable s_flt : float;
  mutable s_arr : Interp.arr;
  arg_tags : int array;
  arg_ints : int array;
  arg_flts : float array;
  arg_arrs : Interp.arr array;
}

let make_rt ?(fuel = Interp.default_fuel) (dp : t) : rt =
  let na = max 1 dp.max_args in
  {
    dp;
    garr = init_globals dp;
    buf = Buffer.create 256;
    fuel;
    steps = 0;
    sp = Interp.stack_base;
    s_tag = 0;
    s_int = 0;
    s_flt = 0.0;
    s_arr = dummy_arr;
    arg_tags = Array.make na 0;
    arg_ints = Array.make na 0;
    arg_flts = Array.make na 0.0;
    arg_arrs = Array.make na dummy_arr;
  }

let undef_trap fr r : 'a = trap "%s: read of undefined r%d" fr.df.fname r

(* Cold path: the operand (k, v) failed to produce a [want].  Re-derive
   the reference's trap: operand-evaluation traps (undefined register,
   unknown name) fire first, then "expected <want>, got <value>". *)
let fail_operand rt fr want k v : 'a =
  let got g = trap "expected %s, got %s" want g in
  if k = k_reg then (
    match fr.tags.(v) with
    | 0 -> undef_trap fr v
    | 1 -> got (string_of_int fr.ints.(v))
    | 2 -> got (Printf.sprintf "%.6g" fr.flts.(v))
    | 3 -> got (if fr.ints.(v) <> 0 then "true" else "false")
    | _ -> got "<array>")
  else if k = k_int then got (string_of_int v)
  else if k = k_flt then got (Printf.sprintf "%.6g" rt.dp.fpool.(v))
  else if k = k_bool then got (if v <> 0 then "true" else "false")
  else if k = k_glob || k = k_loc then got "<array>"
  else if k = k_gunk then trap "unknown global %s" rt.dp.names.(v)
  else trap "unknown local array %s in %s" rt.dp.names.(v) fr.df.fname

(* Hot accessors: the tag read is bounds-checked (a malformed register
   index must raise the same Invalid_argument as the reference's
   [regs.(r)]); the payload read shares the index so it is safe. *)

let[@inline] geti rt fr k v : int =
  if k = k_reg then
    if Array.get fr.tags v = 1 then Array.unsafe_get fr.ints v
    else fail_operand rt fr "int" k v
  else if k = k_int then v
  else fail_operand rt fr "int" k v

let[@inline] getf rt fr k v : float =
  if k = k_reg then
    if Array.get fr.tags v = 2 then Array.unsafe_get fr.flts v
    else fail_operand rt fr "float" k v
  else if k = k_flt then Array.unsafe_get rt.dp.fpool v
  else fail_operand rt fr "float" k v

let[@inline] getb rt fr k v : bool =
  if k = k_reg then
    if Array.get fr.tags v = 3 then Array.unsafe_get fr.ints v <> 0
    else fail_operand rt fr "bool" k v
  else if k = k_bool then v <> 0
  else fail_operand rt fr "bool" k v

let[@inline] geta rt fr k v : Interp.arr =
  if k = k_reg then
    if Array.get fr.tags v = 4 then Array.unsafe_get fr.arrs v
    else fail_operand rt fr "array" k v
  else if k = k_glob then Array.unsafe_get rt.garr v
  else if k = k_loc then Array.unsafe_get fr.locals v
  else fail_operand rt fr "array" k v

let[@inline] stag rt fr k v : int =
  if k = k_reg then (
    let tg = Array.get fr.tags v in
    if tg = 0 then undef_trap fr v else tg)
  else if k = k_gunk then trap "unknown global %s" rt.dp.names.(v)
  else if k = k_lunk then
    trap "unknown local array %s in %s" rt.dp.names.(v) fr.df.fname
  else if k = k_glob || k = k_loc then 4
  else k (* k_int/k_flt/k_bool coincide with tags 1/2/3 *)

let[@inline] getbp fr k v : bool =
  if k = k_reg then Array.unsafe_get fr.ints v <> 0 else v <> 0

let[@inline] eval_any rt fr k v : unit =
  if k = k_reg then (
    let tg = Array.get fr.tags v in
    if tg = 0 then undef_trap fr v;
    rt.s_tag <- tg;
    match tg with
    | 2 -> rt.s_flt <- Array.unsafe_get fr.flts v
    | 4 -> rt.s_arr <- Array.unsafe_get fr.arrs v
    | _ -> rt.s_int <- Array.unsafe_get fr.ints v)
  else if k = k_int then (
    rt.s_tag <- 1;
    rt.s_int <- v)
  else if k = k_flt then (
    rt.s_tag <- 2;
    rt.s_flt <- Array.unsafe_get rt.dp.fpool v)
  else if k = k_bool then (
    rt.s_tag <- 3;
    rt.s_int <- v)
  else if k = k_glob then (
    rt.s_tag <- 4;
    rt.s_arr <- Array.unsafe_get rt.garr v)
  else if k = k_loc then (
    rt.s_tag <- 4;
    rt.s_arr <- Array.unsafe_get fr.locals v)
  else if k = k_gunk then trap "unknown global %s" rt.dp.names.(v)
  else trap "unknown local array %s in %s" rt.dp.names.(v) fr.df.fname

let[@inline] set_int fr d n =
  fr.tags.(d) <- 1;
  Array.unsafe_set fr.ints d n

let[@inline] set_flt fr d f =
  fr.tags.(d) <- 2;
  Array.unsafe_set fr.flts d f

let[@inline] set_bool fr d b =
  fr.tags.(d) <- 3;
  Array.unsafe_set fr.ints d (if b then 1 else 0)

let[@inline] set_scratch rt fr d =
  let tg = rt.s_tag in
  fr.tags.(d) <- tg;
  match tg with
  | 2 -> Array.unsafe_set fr.flts d rt.s_flt
  | 4 -> Array.unsafe_set fr.arrs d rt.s_arr
  | _ -> Array.unsafe_set fr.ints d rt.s_int

let[@inline] save_arg rt j =
  rt.arg_tags.(j) <- rt.s_tag;
  match rt.s_tag with
  | 2 -> rt.arg_flts.(j) <- rt.s_flt
  | 4 -> rt.arg_arrs.(j) <- rt.s_arr
  | _ -> rt.arg_ints.(j) <- rt.s_int

let new_frame (dp : t) fidx : frame =
  let df = dp.funcs.(fidx) in
  let nr = max 1 df.nregs in
  {
    df;
    tags = Array.make nr 0;
    ints = Array.make nr 0;
    flts = Array.make nr 0.0;
    arrs = Array.make nr dummy_arr;
    locals = [||];
  }

let bind_params rt fr n =
  for j = 0 to n - 1 do
    let r = fr.df.params.(j) in
    let tg = rt.arg_tags.(j) in
    fr.tags.(r) <- tg;
    match tg with
    | 2 -> Array.unsafe_set fr.flts r rt.arg_flts.(j)
    | 4 -> Array.unsafe_set fr.arrs r rt.arg_arrs.(j)
    | _ -> Array.unsafe_set fr.ints r rt.arg_ints.(j)
  done

let alloc_locals rt (df : dfunc) : Interp.arr array =
  let n = Array.length df.locals in
  let out = Array.make n dummy_arr in
  for i = 0 to n - 1 do
    let _, elt, size = df.locals.(i) in
    let base = rt.sp in
    rt.sp <- rt.sp + Interp.align64 (size * 8);
    if rt.sp > Interp.stack_base + 0x8000000 then trap "stack overflow";
    let payload =
      match elt with
      | Ir.EltInt | Ir.EltInt32 -> Interp.IA (Array.make size 0)
      | Ir.EltFloat -> Interp.FA (Array.make size 0.0)
    in
    out.(i) <- { Interp.payload; base; esize = 8; mask32 = false }
  done;
  out

let shift_ok n = n >= 0 && n <= 62

let result_of rt : Interp.result =
  let ret =
    match rt.s_tag with
    | 0 -> Interp.VUndef
    | 1 -> Interp.VInt rt.s_int
    | 2 -> Interp.VFloat rt.s_flt
    | 3 -> Interp.VBool (rt.s_int <> 0)
    | _ -> Interp.VArr rt.s_arr
  in
  { Interp.ret; output = Buffer.contents rt.buf; steps = rt.steps }

(* ------------------------------------------------------------------ *)
(* The dispatch loop *)

let do_icmp rt fr di c =
  (* reference shape: both operands read first (tuple, right-to-left),
     then the bool/bool case, else int conversion — again B first *)
  let tb = stag rt fr di.bk di.b in
  let ta = stag rt fr di.ak di.a in
  if ta = 3 && tb = 3 then (
    if c >= 2 then trap "ordered comparison on bool";
    let x = getbp fr di.ak di.a and y = getbp fr di.bk di.b in
    set_bool fr di.dst (if c = 0 then x = y else x <> y))
  else
    let b = geti rt fr di.bk di.b in
    let a = geti rt fr di.ak di.a in
    set_bool fr di.dst
      (match c with
      | 0 -> a = b
      | 1 -> a <> b
      | 2 -> a < b
      | 3 -> a <= b
      | 4 -> a > b
      | _ -> a >= b)

let do_fcmp rt fr di c =
  let b = getf rt fr di.bk di.b in
  let a = getf rt fr di.ak di.a in
  set_bool fr di.dst
    (match c with
    | 0 -> a = b
    | 1 -> a <> b
    | 2 -> a < b
    | 3 -> a <= b
    | 4 -> a > b
    | _ -> a >= b)

module type MODEL = sig
  type t

  val long : t -> int -> int -> unit
  val mem : t -> int -> bool -> int -> unit
  val branch : t -> int -> int -> bool -> unit
  val jump : t -> int -> unit
end

(* The one dispatch loop (decode.mli lists where each hook fires).  The
   hooks sit at the reference simulator's accounting points relative to
   the semantics, so a simulated run raises the exception the reference
   raises. *)
module Exec (M : MODEL) = struct
  let rec exec rt (m : M.t) (fr : frame) : unit =
    let df = fr.df in
    let code = df.code and base = df.base in
    let pc = ref df.entry_pc in
    let running = ref true in
    while !running do
      (* pc stays in bounds by construction: every block ends in a
         terminator and all branch targets are decoded offsets *)
      let at = !pc in
      let di = Array.unsafe_get code at in
      rt.fuel <- rt.fuel - 1;
      rt.steps <- rt.steps + 1;
      if rt.fuel <= 0 then raise Interp.Out_of_fuel;
      pc := at + 1;
      match di.op with
      | OAdd ->
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        set_int fr di.dst (a + b)
      | OSub ->
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        set_int fr di.dst (a - b)
      | OMul ->
        M.long m (base + at) cls_mul;
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        set_int fr di.dst (a * b)
      | ODiv ->
        M.long m (base + at) cls_div;
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        if b = 0 then trap "division by zero" else set_int fr di.dst (a / b)
      | ORem ->
        M.long m (base + at) cls_div;
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        if b = 0 then trap "remainder by zero"
        else set_int fr di.dst (a mod b)
      | OAnd ->
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        set_int fr di.dst (a land b)
      | OOr ->
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        set_int fr di.dst (a lor b)
      | OXor ->
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        set_int fr di.dst (a lxor b)
      | OShl ->
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        if shift_ok b then set_int fr di.dst (a lsl b)
        else trap "shift count %d" b
      | OShr ->
        let b = geti rt fr di.bk di.b in
        let a = geti rt fr di.ak di.a in
        if shift_ok b then set_int fr di.dst (a asr b)
        else trap "shift count %d" b
      | OFAdd ->
        M.long m (base + at) cls_fadd;
        let b = getf rt fr di.bk di.b in
        let a = getf rt fr di.ak di.a in
        set_flt fr di.dst (a +. b)
      | OFSub ->
        M.long m (base + at) cls_fadd;
        let b = getf rt fr di.bk di.b in
        let a = getf rt fr di.ak di.a in
        set_flt fr di.dst (a -. b)
      | OFMul ->
        M.long m (base + at) cls_fmul;
        let b = getf rt fr di.bk di.b in
        let a = getf rt fr di.ak di.a in
        set_flt fr di.dst (a *. b)
      | OFDiv ->
        M.long m (base + at) cls_fdiv;
        let b = getf rt fr di.bk di.b in
        let a = getf rt fr di.ak di.a in
        set_flt fr di.dst (a /. b)
      | OIeq -> do_icmp rt fr di 0
      | OIne -> do_icmp rt fr di 1
      | OIlt -> do_icmp rt fr di 2
      | OIle -> do_icmp rt fr di 3
      | OIgt -> do_icmp rt fr di 4
      | OIge -> do_icmp rt fr di 5
      | OFeq ->
        M.long m (base + at) cls_fadd;
        do_fcmp rt fr di 0
      | OFne ->
        M.long m (base + at) cls_fadd;
        do_fcmp rt fr di 1
      | OFlt ->
        M.long m (base + at) cls_fadd;
        do_fcmp rt fr di 2
      | OFle ->
        M.long m (base + at) cls_fadd;
        do_fcmp rt fr di 3
      | OFgt ->
        M.long m (base + at) cls_fadd;
        do_fcmp rt fr di 4
      | OFge ->
        M.long m (base + at) cls_fadd;
        do_fcmp rt fr di 5
      | ONot ->
        let x = getb rt fr di.ak di.a in
        set_bool fr di.dst (not x)
      | OMov ->
        eval_any rt fr di.ak di.a;
        set_scratch rt fr di.dst
      | OI2f ->
        M.long m (base + at) cls_fadd;
        let a = geti rt fr di.ak di.a in
        set_flt fr di.dst (float_of_int a)
      | OF2i ->
        M.long m (base + at) cls_fadd;
        let f = getf rt fr di.ak di.a in
        if Float.is_nan f || Float.abs f > 4.6e18 then
          trap "float-to-int overflow on %g" f
        else set_int fr di.dst (int_of_float f)
      | OLoad ->
        let ix = geti rt fr di.bk di.b in
        let a = geta rt fr di.ak di.a in
        let len = arr_len a in
        if ix < 0 || ix >= len then
          trap "load out of bounds: index %d, length %d" ix len;
        M.mem m (base + at) false (a.Interp.base + (ix * a.Interp.esize));
        (match a.Interp.payload with
        | Interp.IA x -> set_int fr di.dst (Array.unsafe_get x ix)
        | Interp.FA x -> set_flt fr di.dst (Array.unsafe_get x ix))
      | OStore ->
        (* value, then index, then array — right-to-left like the oracle *)
        eval_any rt fr di.ck di.c;
        let vtag = rt.s_tag in
        let vi = rt.s_int and vf = rt.s_flt in
        let ix = geti rt fr di.bk di.b in
        let a = geta rt fr di.ak di.a in
        let len = arr_len a in
        if ix < 0 || ix >= len then
          trap "store out of bounds: index %d, length %d" ix len;
        M.mem m (base + at) true (a.Interp.base + (ix * a.Interp.esize));
        (match a.Interp.payload with
        | Interp.IA x ->
          if vtag = 1 then
            Array.unsafe_set x ix
              (if a.Interp.mask32 then vi land 0xFFFFFFFF else vi)
          else trap "storing non-int into int array"
        | Interp.FA x ->
          if vtag = 2 then Array.unsafe_set x ix vf
          else trap "storing non-float into float array")
      | OAlen ->
        let a = geta rt fr di.ak di.a in
        set_int fr di.dst (arr_len a)
      | OCall ->
        M.long m (base + at) cls_call;
        let args = di.args in
        let nargs = Array.length args / 2 in
        for j = 0 to nargs - 1 do
          eval_any rt fr
            (Array.unsafe_get args (2 * j))
            (Array.unsafe_get args ((2 * j) + 1));
          save_arg rt j
        done;
        if di.callee < 0 then trap "call to unknown function %s" di.sname;
        do_call rt m di.callee nargs;
        if di.dst >= 0 then set_scratch rt fr di.dst
      | OPrint ->
        M.long m (base + at) cls_print;
        eval_any rt fr di.ak di.a;
        Buffer.add_string rt.buf
          (match rt.s_tag with
          | 1 -> string_of_int rt.s_int
          | 2 -> Printf.sprintf "%.6g" rt.s_flt
          | 3 -> if rt.s_int <> 0 then "true" else "false"
          | _ -> "<array>");
        Buffer.add_char rt.buf '\n'
      | OJmp ->
        M.jump m (base + at);
        pc := di.dst
      | OBr ->
        let taken = getb rt fr di.ak di.a in
        M.branch m (base + at) di.c taken;
        pc := if taken then di.dst else di.b
      | ORetN ->
        M.jump m (base + at);
        rt.s_tag <- 0;
        running := false
      | ORetV ->
        M.jump m (base + at);
        eval_any rt fr di.ak di.a;
        running := false
      | OBadLabel ->
        raise
          (Invalid_argument
             (Printf.sprintf "Ir.find_block: no block %d in %s" di.a
                fr.df.fname))
    done

  and do_call rt m fidx nargs : unit =
    let df = rt.dp.funcs.(fidx) in
    if nargs <> Array.length df.params then
      trap "arity mismatch calling %s" df.fname;
    let fr = new_frame rt.dp fidx in
    bind_params rt fr nargs;
    let saved_sp = rt.sp in
    fr.locals <- alloc_locals rt df;
    exec rt m fr;
    rt.sp <- saved_sp

  let start rt (m : M.t) : unit =
    let dp = rt.dp in
    if dp.main_idx < 0 then trap "call to unknown function %s" dp.main_name;
    do_call rt m dp.main_idx 0

  let run ~fuel (m : M.t) (dp : t) : Interp.result =
    let rt = make_rt ~fuel dp in
    start rt m;
    result_of rt
end

(* ------------------------------------------------------------------ *)
(* Entry points *)

module Plain = Exec (struct
  type t = unit

  let long () _ _ = ()
  let mem () _ _ _ = ()
  let branch () _ _ _ = ()
  let jump () _ = ()
end)

let run ?(fuel = Interp.default_fuel) (dp : t) : Interp.result =
  Plain.run ~fuel () dp

let run_program ?fuel (p : Ir.program) : Interp.result = run ?fuel (decode p)

let observe ?fuel (p : Ir.program) : Interp.observation =
  match run_program ?fuel p with
  | r -> Interp.Finished (Interp.value_to_string r.Interp.ret, r.Interp.output)
  | exception Interp.Trap m -> Interp.Trapped m
  | exception Interp.Out_of_fuel -> Interp.Diverged
