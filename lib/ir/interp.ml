(* Reference execution engine for the IR.

   The engine is shared between the functional interpreter (the semantics
   oracle used by differential tests) and the cycle-level machine simulator:
   the simulator supplies [hooks] that observe every executed instruction,
   every memory access (with its byte address) and every conditional branch
   (with a stable site id), and accumulates timing on the side.  With the
   default no-op hooks this is a plain interpreter.

   Semantics notes:
   - integers are native OCaml ints (wrap-around arithmetic);
   - division/remainder by zero, out-of-bounds array accesses, and
     out-of-range shift counts (not in [0,62]) trap — traps are observable
     behaviour that optimization passes must preserve;
   - reading a register that was never written traps (this catches
     miscompilations in differential testing; well-typed lowered code never
     does it);
   - local arrays are zero-initialized, as are globals beyond their
     initializers. *)

type payload = IA of int array | FA of float array

type arr = {
  payload : payload;
  base : int;      (* byte address *)
  esize : int;     (* element size in bytes: 8, or 4 when packed *)
  mask32 : bool;   (* packed: stores keep only the low 32 bits *)
}

type value =
  | VUndef
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VArr of arr

exception Trap of string
exception Out_of_fuel

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

type hooks = {
  on_instr : Ir.instr -> unit;
  on_load : int -> unit;               (* byte address *)
  on_store : int -> unit;
  on_branch : int -> bool -> unit;     (* site id, taken *)
  on_jump : unit -> unit;              (* unconditional jmp / ret *)
}

let no_hooks =
  {
    on_instr = (fun _ -> ());
    on_load = (fun _ -> ());
    on_store = (fun _ -> ());
    on_branch = (fun _ _ -> ());
    on_jump = (fun () -> ());
  }

(* Stable ids for conditional-branch sites, used by the branch predictor.
   Ids are assigned per function in label order, offset so that different
   functions never collide. *)
type site_table = { sites : (string * int, int) Hashtbl.t; mutable count : int }

let build_sites (p : Ir.program) : site_table =
  let t = { sites = Hashtbl.create 64; count = 0 } in
  Ir.SMap.iter
    (fun fname (f : Ir.func) ->
      Ir.LMap.iter
        (fun l (b : Ir.block) ->
          match b.Ir.term with
          | Ir.Br _ ->
            Hashtbl.replace t.sites (fname, l) t.count;
            t.count <- t.count + 1
          | _ -> ())
        f.Ir.blocks)
    p.funcs;
  t

type result = {
  ret : value;
  output : string;
  steps : int;   (* dynamic instruction count, terminators included *)
}

let global_base = 0x10000
let stack_base = 0x4000000

type state = {
  prog : Ir.program;
  hooks : hooks;
  sites : site_table;
  globals : (string, arr) Hashtbl.t;
  buf : Buffer.t;
  mutable fuel : int;
  mutable steps : int;
  mutable sp : int;   (* next free stack byte address *)
}

let value_to_string = function
  | VInt n -> string_of_int n
  | VFloat f -> Printf.sprintf "%.6g" f
  | VBool b -> string_of_bool b
  | VArr _ -> "<array>"
  | VUndef -> "<undef>"

let arr_len a =
  match a.payload with IA x -> Array.length x | FA x -> Array.length x

let as_int = function
  | VInt n -> n
  | v -> trap "expected int, got %s" (value_to_string v)

let as_float = function
  | VFloat f -> f
  | v -> trap "expected float, got %s" (value_to_string v)

let as_bool = function
  | VBool b -> b
  | v -> trap "expected bool, got %s" (value_to_string v)

let as_arr = function
  | VArr a -> a
  | v -> trap "expected array, got %s" (value_to_string v)

let shift_ok n = n >= 0 && n <= 62

let eval_arith op a b =
  match (op : Ir.arith) with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then trap "division by zero" else a / b
  | Ir.Rem -> if b = 0 then trap "remainder by zero" else a mod b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> if shift_ok b then a lsl b else trap "shift count %d" b
  | Ir.Shr -> if shift_ok b then a asr b else trap "shift count %d" b

let eval_farith op a b =
  match (op : Ir.farith) with
  | Ir.FAdd -> a +. b
  | Ir.FSub -> a -. b
  | Ir.FMul -> a *. b
  | Ir.FDiv -> a /. b   (* IEEE: yields inf/nan, does not trap *)

let eval_icmp op a b =
  match (op : Ir.cmp) with
  | Ir.Eq -> a = b
  | Ir.Ne -> a <> b
  | Ir.Lt -> a < b
  | Ir.Le -> a <= b
  | Ir.Gt -> a > b
  | Ir.Ge -> a >= b

let eval_fcmp op a b =
  match (op : Ir.cmp) with
  | Ir.Eq -> a = b
  | Ir.Ne -> a <> b
  | Ir.Lt -> a < b
  | Ir.Le -> a <= b
  | Ir.Gt -> a > b
  | Ir.Ge -> (a : float) >= b

(* Equality used by Icmp on potentially mixed bool/int registers: lowering
   only compares same-typed scalars, so plain comparisons above suffice. *)

let align64 n = (n + 63) land lnot 63

let alloc_local st (elt : Ir.elt) size =
  let base = st.sp in
  st.sp <- st.sp + align64 (size * 8);
  if st.sp > stack_base + 0x8000000 then trap "stack overflow";
  let payload =
    match elt with
    | Ir.EltInt | Ir.EltInt32 -> IA (Array.make size 0)
    | Ir.EltFloat -> FA (Array.make size 0.0)
  in
  { payload; base; esize = 8; mask32 = false }

let do_load st (a : arr) idx =
  if idx < 0 || idx >= arr_len a then
    trap "load out of bounds: index %d, length %d" idx (arr_len a);
  st.hooks.on_load (a.base + (idx * a.esize));
  match a.payload with
  | IA x -> VInt (Array.unsafe_get x idx)
  | FA x -> VFloat (Array.unsafe_get x idx)

let do_store st (a : arr) idx v =
  if idx < 0 || idx >= arr_len a then
    trap "store out of bounds: index %d, length %d" idx (arr_len a);
  st.hooks.on_store (a.base + (idx * a.esize));
  match (a.payload, v) with
  | IA x, VInt n ->
    Array.unsafe_set x idx (if a.mask32 then n land 0xFFFFFFFF else n)
  | FA x, VFloat f -> Array.unsafe_set x idx f
  | IA _, _ -> trap "storing non-int into int array"
  | FA _, _ -> trap "storing non-float into float array"

let rec eval_call st fname (args : value list) : value =
  let f =
    match Ir.SMap.find_opt fname st.prog.funcs with
    | Some f -> f
    | None -> trap "call to unknown function %s" fname
  in
  if List.length args <> List.length f.Ir.params then
    trap "arity mismatch calling %s" fname;
  let regs = Array.make (max 1 f.Ir.nregs) VUndef in
  List.iter2 (fun r v -> regs.(r) <- v) f.Ir.params args;
  (* allocate frame arrays *)
  let saved_sp = st.sp in
  let locals = Hashtbl.create 4 in
  List.iter
    (fun (n, elt, size) -> Hashtbl.replace locals n (alloc_local st elt size))
    f.Ir.locals;
  let operand (o : Ir.operand) : value =
    match o with
    | Ir.Reg r ->
      let v = regs.(r) in
      if v == VUndef then trap "%s: read of undefined r%d" fname r else v
    | Ir.Cint n -> VInt n
    | Ir.Cfloat f -> VFloat f
    | Ir.Cbool b -> VBool b
    | Ir.AGlob g -> (
      match Hashtbl.find_opt st.globals g with
      | Some a -> VArr a
      | None -> trap "unknown global %s" g)
    | Ir.ALoc n -> (
      match Hashtbl.find_opt locals n with
      | Some a -> VArr a
      | None -> trap "unknown local array %s in %s" n fname)
  in
  let exec_instr (i : Ir.instr) : unit =
    st.hooks.on_instr i;
    match i with
    | Ir.Bin (op, d, a, b) ->
      regs.(d) <- VInt (eval_arith op (as_int (operand a)) (as_int (operand b)))
    | Ir.Fbin (op, d, a, b) ->
      regs.(d) <-
        VFloat (eval_farith op (as_float (operand a)) (as_float (operand b)))
    | Ir.Icmp (op, d, a, b) -> begin
      (* int or bool equality; lowering emits Icmp Eq/Ne on bools too *)
      match (operand a, operand b) with
      | VBool x, VBool y ->
        regs.(d) <-
          VBool
            (match op with
             | Ir.Eq -> x = y
             | Ir.Ne -> x <> y
             | _ -> trap "ordered comparison on bool")
      | va, vb -> regs.(d) <- VBool (eval_icmp op (as_int va) (as_int vb))
    end
    | Ir.Fcmp (op, d, a, b) ->
      regs.(d) <- VBool (eval_fcmp op (as_float (operand a)) (as_float (operand b)))
    | Ir.Not (d, a) -> regs.(d) <- VBool (not (as_bool (operand a)))
    | Ir.Mov (d, a) -> regs.(d) <- operand a
    | Ir.I2f (d, a) -> regs.(d) <- VFloat (float_of_int (as_int (operand a)))
    | Ir.F2i (d, a) ->
      let f = as_float (operand a) in
      if Float.is_nan f || Float.abs f > 4.6e18 then
        trap "float-to-int overflow on %g" f
      else regs.(d) <- VInt (int_of_float f)
    | Ir.Load (d, a, ix) ->
      regs.(d) <- do_load st (as_arr (operand a)) (as_int (operand ix))
    | Ir.Store (a, ix, v) ->
      do_store st (as_arr (operand a)) (as_int (operand ix)) (operand v)
    | Ir.Alen (d, a) -> regs.(d) <- VInt (arr_len (as_arr (operand a)))
    | Ir.Call (d, g, cargs) ->
      let vs = List.map operand cargs in
      let rv = eval_call st g vs in
      (match d with
       | Some d -> regs.(d) <- rv
       | None -> ())
    | Ir.Print a ->
      Buffer.add_string st.buf (value_to_string (operand a));
      Buffer.add_char st.buf '\n'
  in
  let site l =
    match Hashtbl.find_opt st.sites.sites (fname, l) with
    | Some s -> s
    | None -> -1
  in
  let rec run_block label : value =
    let b = Ir.find_block f label in
    List.iter
      (fun i ->
        st.fuel <- st.fuel - 1;
        st.steps <- st.steps + 1;
        if st.fuel <= 0 then raise Out_of_fuel;
        exec_instr i)
      b.Ir.instrs;
    st.fuel <- st.fuel - 1;
    st.steps <- st.steps + 1;
    if st.fuel <= 0 then raise Out_of_fuel;
    match b.Ir.term with
    | Ir.Jmp l ->
      st.hooks.on_jump ();
      run_block l
    | Ir.Br (c, t, e) ->
      let taken = as_bool (operand c) in
      st.hooks.on_branch (site label) taken;
      run_block (if taken then t else e)
    | Ir.Ret None ->
      st.hooks.on_jump ();
      VUndef
    | Ir.Ret (Some v) ->
      st.hooks.on_jump ();
      operand v
  in
  let rv = run_block f.Ir.entry in
  st.sp <- saved_sp;
  rv

let global_arr ~base (g : Ir.global) : arr =
  let payload =
    match g.Ir.gelt with
    | Ir.EltInt | Ir.EltInt32 ->
      let a = Array.make g.Ir.gsize 0 in
      Array.iteri (fun i v -> a.(i) <- int_of_float v) g.Ir.ginit;
      IA a
    | Ir.EltFloat ->
      let a = Array.make g.Ir.gsize 0.0 in
      Array.blit g.Ir.ginit 0 a 0 (Array.length g.Ir.ginit);
      FA a
  in
  let esize = match g.Ir.gelt with Ir.EltInt32 -> 4 | _ -> 8 in
  { payload; base; esize; mask32 = g.Ir.gelt = Ir.EltInt32 }

let init_globals (p : Ir.program) : (string, arr) Hashtbl.t =
  let globals = Hashtbl.create 8 in
  let addr = ref global_base in
  List.iter
    (fun (g : Ir.global) ->
      let a = global_arr ~base:!addr g in
      Hashtbl.replace globals g.Ir.gname a;
      addr := !addr + align64 (g.Ir.gsize * a.esize))
    p.globals;
  globals

let default_fuel = 100_000_000

(* Run [p] from its main function.  Raises [Trap] / [Out_of_fuel]. *)
let run ?(fuel = default_fuel) ?(hooks = no_hooks) (p : Ir.program) : result =
  let st =
    {
      prog = p;
      hooks;
      sites = build_sites p;
      globals = init_globals p;
      buf = Buffer.create 256;
      fuel;
      steps = 0;
      sp = stack_base;
    }
  in
  let ret = eval_call st p.main [] in
  { ret; output = Buffer.contents st.buf; steps = st.steps }

(* Observable behaviour for differential testing: either a normal outcome
   (return value as string + printed output) or a trap message.  Fuel
   exhaustion is reported distinctly since an optimization may legitimately
   change instruction counts. *)
type observation =
  | Finished of string * string   (* return value, output *)
  | Trapped of string
  | Diverged

let observe ?(fuel = default_fuel) (p : Ir.program) : observation =
  match run ~fuel p with
  | r -> Finished (value_to_string r.ret, r.output)
  | exception Trap m -> Trapped m
  | exception Out_of_fuel -> Diverged

let equal_observation a b =
  match (a, b) with
  | Finished (r1, o1), Finished (r2, o2) -> r1 = r2 && o1 = o2
  | Trapped _, Trapped _ ->
    (* trap messages may differ in detail after optimization; the *fact*
       of trapping is the observable *)
    true
  | Diverged, Diverged -> true
  | _ -> false

let pp_observation ppf = function
  | Finished (r, o) -> Fmt.pf ppf "Finished(ret=%s, out=%S)" r o
  | Trapped m -> Fmt.pf ppf "Trapped(%s)" m
  | Diverged -> Fmt.pf ppf "Diverged"
