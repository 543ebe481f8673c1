(* Lowering from the Mira AST to the three-address IR.

   Scalar variables are mapped to virtual registers (one per declaration;
   shadowed declarations get fresh registers).  Local arrays are hoisted to
   function-level frame slots, with name mangling so that shadowed array
   declarations in inner scopes stay distinct.  Short-circuit operators
   lower to control flow.

   The block structure produced for loops is deliberately canonical —
   a dedicated header block holding the exit test, a body sub-graph and a
   dedicated latch jump back to the header — because the loop passes
   (unrolling, LICM) key on natural loops with that shape. *)

exception Error of string

module SMap = Map.Make (String)

type binding =
  | BScalar of Ir.reg
  | BArr of Ir.operand   (* ALoc, AGlob, or Reg for array params *)

type st = {
  mutable nregs : int;
  mutable nlabels : int;
  mutable blocks : Ir.block Ir.LMap.t;
  mutable cur_label : Ir.label;
  mutable cur_instrs : Ir.instr list;  (* reverse order *)
  mutable locals : (string * Ir.elt * int) list;
  mutable mangle : int;
  mutable finished : bool;  (* current block already terminated *)
  fsigs : (string, Ast.ty list * Ast.ty option) Hashtbl.t;
}

let fresh_reg st =
  let r = st.nregs in
  st.nregs <- st.nregs + 1;
  r

let fresh_label st =
  let l = st.nlabels in
  st.nlabels <- st.nlabels + 1;
  l

let emit st i =
  if not st.finished then st.cur_instrs <- i :: st.cur_instrs

let finish st term =
  if not st.finished then begin
    st.blocks <-
      Ir.LMap.add st.cur_label
        { Ir.instrs = List.rev st.cur_instrs; term }
        st.blocks;
    st.finished <- true
  end

let start_block st l =
  st.cur_label <- l;
  st.cur_instrs <- [];
  st.finished <- false

(* Type of an expression, as needed to choose int vs float opcodes.  The
   program is already type checked, so this local inference cannot fail on
   well-typed input. *)
let rec ty_of env st (x : Ast.expr) : Ast.ty =
  match x.e with
  | Ast.Int _ -> Ast.TInt
  | Ast.Float _ -> Ast.TFloat
  | Ast.Bool _ -> Ast.TBool
  | Ast.Var v -> begin
    match SMap.find_opt v env with
    | Some (BScalar _, ty) -> ty
    | Some (BArr _, ty) -> ty
    | None -> raise (Error ("lower: unbound " ^ v))
  end
  | Ast.Index (a, _) -> begin
    match SMap.find_opt a env with
    | Some (_, Ast.TArr Ast.EltInt) -> Ast.TInt
    | Some (_, Ast.TArr Ast.EltFloat) -> Ast.TFloat
    | _ -> raise (Error ("lower: bad array " ^ a))
  end
  | Ast.Len _ -> Ast.TInt
  | Ast.Un (Ast.Neg, e) -> ty_of env st e
  | Ast.Un (Ast.Not, _) -> Ast.TBool
  | Ast.Un (Ast.BNot, _) -> Ast.TInt
  | Ast.Un (Ast.FloatOfInt, _) -> Ast.TFloat
  | Ast.Un (Ast.IntOfFloat, _) -> Ast.TInt
  | Ast.Bin ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), l, _) -> ty_of env st l
  | Ast.Bin ((Ast.Rem | Ast.BAnd | Ast.BOr | Ast.BXor | Ast.Shl | Ast.Shr), _, _)
    -> Ast.TInt
  | Ast.Bin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne
             | Ast.LAnd | Ast.LOr), _, _) -> Ast.TBool
  | Ast.Call (f, _) -> begin
    match Hashtbl.find_opt st.fsigs f with
    | Some (_, Some ty) -> ty
    | Some (_, None) -> raise (Error ("lower: void call in expression " ^ f))
    | None -> raise (Error ("lower: unknown function " ^ f))
  end

let arith_of_binop ~isf (op : Ast.binop) : [ `I of Ir.arith | `F of Ir.farith ]
    =
  match (op, isf) with
  | Ast.Add, false -> `I Ir.Add
  | Ast.Sub, false -> `I Ir.Sub
  | Ast.Mul, false -> `I Ir.Mul
  | Ast.Div, false -> `I Ir.Div
  | Ast.Rem, false -> `I Ir.Rem
  | Ast.BAnd, false -> `I Ir.And
  | Ast.BOr, false -> `I Ir.Or
  | Ast.BXor, false -> `I Ir.Xor
  | Ast.Shl, false -> `I Ir.Shl
  | Ast.Shr, false -> `I Ir.Shr
  | Ast.Add, true -> `F Ir.FAdd
  | Ast.Sub, true -> `F Ir.FSub
  | Ast.Mul, true -> `F Ir.FMul
  | Ast.Div, true -> `F Ir.FDiv
  | _ -> raise (Error "lower: not an arithmetic operator")

let cmp_of_binop : Ast.binop -> Ir.cmp = function
  | Ast.Lt -> Ir.Lt
  | Ast.Le -> Ir.Le
  | Ast.Gt -> Ir.Gt
  | Ast.Ge -> Ir.Ge
  | Ast.Eq -> Ir.Eq
  | Ast.Ne -> Ir.Ne
  | _ -> raise (Error "lower: not a comparison")

type env = (binding * Ast.ty) SMap.t

let rec lower_expr st (env : env) (x : Ast.expr) : Ir.operand =
  match x.e with
  | Ast.Int n -> Ir.Cint n
  | Ast.Float f -> Ir.Cfloat f
  | Ast.Bool b -> Ir.Cbool b
  | Ast.Var v -> begin
    match SMap.find_opt v env with
    | Some (BScalar r, _) -> Ir.Reg r
    | Some (BArr op, _) -> op
    | None -> raise (Error ("lower: unbound " ^ v))
  end
  | Ast.Index (a, i) ->
    let arr = arr_operand env a in
    let idx = lower_expr st env i in
    let d = fresh_reg st in
    emit st (Ir.Load (d, arr, idx));
    Ir.Reg d
  | Ast.Len a ->
    let arr = arr_operand env a in
    let d = fresh_reg st in
    emit st (Ir.Alen (d, arr));
    Ir.Reg d
  | Ast.Un (Ast.Neg, e) ->
    let v = lower_expr st env e in
    let d = fresh_reg st in
    (match ty_of env st e with
     | Ast.TFloat -> emit st (Ir.Fbin (Ir.FSub, d, Ir.Cfloat 0.0, v))
     | _ -> emit st (Ir.Bin (Ir.Sub, d, Ir.Cint 0, v)));
    Ir.Reg d
  | Ast.Un (Ast.Not, e) ->
    let v = lower_expr st env e in
    let d = fresh_reg st in
    emit st (Ir.Not (d, v));
    Ir.Reg d
  | Ast.Un (Ast.BNot, e) ->
    let v = lower_expr st env e in
    let d = fresh_reg st in
    emit st (Ir.Bin (Ir.Xor, d, v, Ir.Cint (-1)));
    Ir.Reg d
  | Ast.Un (Ast.FloatOfInt, e) ->
    let v = lower_expr st env e in
    let d = fresh_reg st in
    emit st (Ir.I2f (d, v));
    Ir.Reg d
  | Ast.Un (Ast.IntOfFloat, e) ->
    let v = lower_expr st env e in
    let d = fresh_reg st in
    emit st (Ir.F2i (d, v));
    Ir.Reg d
  | Ast.Bin (Ast.LAnd, l, r) ->
    (* d = l; if d then d = r *)
    let d = fresh_reg st in
    let vl = lower_expr st env l in
    emit st (Ir.Mov (d, vl));
    let rhs = fresh_label st and join = fresh_label st in
    finish st (Ir.Br (Ir.Reg d, rhs, join));
    start_block st rhs;
    let vr = lower_expr st env r in
    emit st (Ir.Mov (d, vr));
    finish st (Ir.Jmp join);
    start_block st join;
    Ir.Reg d
  | Ast.Bin (Ast.LOr, l, r) ->
    let d = fresh_reg st in
    let vl = lower_expr st env l in
    emit st (Ir.Mov (d, vl));
    let rhs = fresh_label st and join = fresh_label st in
    finish st (Ir.Br (Ir.Reg d, join, rhs));
    start_block st rhs;
    let vr = lower_expr st env r in
    emit st (Ir.Mov (d, vr));
    finish st (Ir.Jmp join);
    start_block st join;
    Ir.Reg d
  | Ast.Bin ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op, l, r)
    ->
    let isf = ty_of env st l = Ast.TFloat in
    let vl = lower_expr st env l in
    let vr = lower_expr st env r in
    let d = fresh_reg st in
    let c = cmp_of_binop op in
    if isf then emit st (Ir.Fcmp (c, d, vl, vr))
    else emit st (Ir.Icmp (c, d, vl, vr));
    Ir.Reg d
  | Ast.Bin (op, l, r) ->
    let isf = ty_of env st l = Ast.TFloat in
    let vl = lower_expr st env l in
    let vr = lower_expr st env r in
    let d = fresh_reg st in
    (match arith_of_binop ~isf op with
     | `I o -> emit st (Ir.Bin (o, d, vl, vr))
     | `F o -> emit st (Ir.Fbin (o, d, vl, vr)));
    Ir.Reg d
  | Ast.Call (f, args) ->
    let vargs = List.map (lower_expr st env) args in
    let d = fresh_reg st in
    emit st (Ir.Call (Some d, f, vargs));
    Ir.Reg d

and arr_operand env a : Ir.operand =
  match SMap.find_opt a env with
  | Some (BArr op, _) -> op
  | Some (BScalar _, _) -> raise (Error ("lower: scalar used as array: " ^ a))
  | None -> raise (Error ("lower: unbound array " ^ a))

let rec lower_stmt st (env : env) (x : Ast.stmt) : env =
  match x.s with
  | Ast.SDecl (v, ty, e) ->
    let value = lower_expr st env e in
    let r = fresh_reg st in
    emit st (Ir.Mov (r, value));
    SMap.add v (BScalar r, ty) env
  | Ast.SArrDecl (v, elt, n) ->
    let mangled = if st.mangle = 0 then v else Printf.sprintf "%s#%d" v st.mangle in
    (* ensure uniqueness among locals *)
    let mangled =
      if List.exists (fun (m, _, _) -> m = mangled) st.locals then begin
        st.mangle <- st.mangle + 1;
        Printf.sprintf "%s#%d" v st.mangle
      end
      else mangled
    in
    let ielt = match elt with Ast.EltInt -> Ir.EltInt | Ast.EltFloat -> Ir.EltFloat in
    st.locals <- (mangled, ielt, n) :: st.locals;
    SMap.add v (BArr (Ir.ALoc mangled), Ast.TArr elt) env
  | Ast.SAssign (v, e) -> begin
    match SMap.find_opt v env with
    | Some (BScalar r, _) ->
      let value = lower_expr st env e in
      emit st (Ir.Mov (r, value));
      env
    | _ -> raise (Error ("lower: bad assignment target " ^ v))
  end
  | Ast.SStore (a, i, e) ->
    let arr = arr_operand env a in
    let idx = lower_expr st env i in
    let v = lower_expr st env e in
    emit st (Ir.Store (arr, idx, v));
    env
  | Ast.SIf (c, t, []) ->
    let vc = lower_expr st env c in
    let lt = fresh_label st and join = fresh_label st in
    finish st (Ir.Br (vc, lt, join));
    start_block st lt;
    ignore (lower_body st env t);
    finish st (Ir.Jmp join);
    start_block st join;
    env
  | Ast.SIf (c, t, e) ->
    let vc = lower_expr st env c in
    let lt = fresh_label st and le = fresh_label st and join = fresh_label st in
    finish st (Ir.Br (vc, lt, le));
    start_block st lt;
    ignore (lower_body st env t);
    finish st (Ir.Jmp join);
    start_block st le;
    ignore (lower_body st env e);
    finish st (Ir.Jmp join);
    start_block st join;
    env
  | Ast.SWhile (c, b) ->
    let header = fresh_label st in
    let body = fresh_label st in
    let exit = fresh_label st in
    finish st (Ir.Jmp header);
    start_block st header;
    let vc = lower_expr st env c in
    finish st (Ir.Br (vc, body, exit));
    start_block st body;
    ignore (lower_body st env b);
    finish st (Ir.Jmp header);
    start_block st exit;
    env
  | Ast.SFor (v, lo, hi, step, b) ->
    (* Evaluate bounds and step once, before the loop. *)
    let vlo = lower_expr st env lo in
    let vr = fresh_reg st in
    emit st (Ir.Mov (vr, vlo));
    let vhi = lower_expr st env hi in
    let hr = fresh_reg st in
    emit st (Ir.Mov (hr, vhi));
    let vstep = lower_expr st env step in
    let sr = fresh_reg st in
    emit st (Ir.Mov (sr, vstep));
    let env' = SMap.add v (BScalar vr, Ast.TInt) env in
    let header = fresh_label st in
    let body = fresh_label st in
    let exit = fresh_label st in
    finish st (Ir.Jmp header);
    start_block st header;
    let c = fresh_reg st in
    emit st (Ir.Icmp (Ir.Lt, c, Ir.Reg vr, Ir.Reg hr));
    finish st (Ir.Br (Ir.Reg c, body, exit));
    start_block st body;
    ignore (lower_body st env' b);
    emit st (Ir.Bin (Ir.Add, vr, Ir.Reg vr, Ir.Reg sr));
    finish st (Ir.Jmp header);
    start_block st exit;
    env
  | Ast.SReturn None ->
    finish st (Ir.Ret None);
    (* start a fresh unreachable block to absorb trailing statements *)
    start_block st (fresh_label st);
    env
  | Ast.SReturn (Some e) ->
    let v = lower_expr st env e in
    finish st (Ir.Ret (Some v));
    start_block st (fresh_label st);
    env
  | Ast.SExpr e -> begin
    match e.e with
    | Ast.Call (f, args) ->
      let vargs = List.map (lower_expr st env) args in
      let dst =
        match Hashtbl.find_opt st.fsigs f with
        | Some (_, Some _) -> Some (fresh_reg st)
        | _ -> None
      in
      emit st (Ir.Call (dst, f, vargs));
      env
    | _ ->
      ignore (lower_expr st env e);
      env
  end
  | Ast.SPrint e ->
    let v = lower_expr st env e in
    emit st (Ir.Print v);
    env

and lower_body st env stmts =
  (* statements update the env sequentially; the scope ends afterwards *)
  ignore (List.fold_left (lower_stmt st) env stmts)

let lower_func fsigs (globals : Ast.global list) (f : Ast.func) : Ir.func =
  let st =
    {
      nregs = 0;
      nlabels = 0;
      blocks = Ir.LMap.empty;
      cur_label = 0;
      cur_instrs = [];
      locals = [];
      mangle = 0;
      finished = true;
      fsigs;
    }
  in
  let entry = fresh_label st in
  start_block st entry;
  (* Bind globals first, then parameters (parameters shadow). *)
  let env =
    List.fold_left
      (fun env (g : Ast.global) ->
        SMap.add g.Ast.gname (BArr (Ir.AGlob g.Ast.gname), Ast.TArr g.Ast.gelt) env)
      SMap.empty globals
  in
  let params_regs = ref [] in
  let env =
    List.fold_left
      (fun env (n, ty) ->
        let r = fresh_reg st in
        params_regs := r :: !params_regs;
        match ty with
        | Ast.TArr _ -> SMap.add n (BArr (Ir.Reg r), ty) env
        | _ -> SMap.add n (BScalar r, ty) env)
      env f.Ast.params
  in
  lower_body st env f.Ast.body;
  (* Implicit return at the end of the function body. *)
  (match f.Ast.ret with
   | None -> finish st (Ir.Ret None)
   | Some Ast.TInt -> finish st (Ir.Ret (Some (Ir.Cint 0)))
   | Some Ast.TFloat -> finish st (Ir.Ret (Some (Ir.Cfloat 0.0)))
   | Some Ast.TBool -> finish st (Ir.Ret (Some (Ir.Cbool false)))
   | Some (Ast.TArr _) -> raise (Error "lower: functions cannot return arrays"));
  {
    Ir.name = f.Ast.fname;
    params = List.rev !params_regs;
    nregs = st.nregs;
    entry;
    blocks = st.blocks;
    nlabels = st.nlabels;
    locals = List.rev st.locals;
  }

(* A global's [ginit]: its source initializers (at most [gsize]) up to
   the last one that is not +0.0; the zeros after it are implicit, so
   the work follows what the source wrote, never [gsize].  The test is
   on bits: a -0.0 float initializer differs from +0.0 and stays. *)
let written_init gsize (init : float list) : float array =
  let a = Array.of_list (List.filteri (fun i _ -> i < gsize) init) in
  let n = ref (Array.length a) in
  while !n > 0 && Int64.bits_of_float a.(!n - 1) = 0L do decr n done;
  Array.sub a 0 !n

let lower (p : Ast.program) : Ir.program =
  let fsigs = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      Hashtbl.replace fsigs f.Ast.fname (List.map snd f.Ast.params, f.Ast.ret))
    p.Ast.funcs;
  let funcs =
    List.fold_left
      (fun acc (f : Ast.func) ->
        Ir.SMap.add f.Ast.fname (lower_func fsigs p.Ast.globals f) acc)
      Ir.SMap.empty p.Ast.funcs
  in
  let globals =
    List.map
      (fun (g : Ast.global) ->
        {
          Ir.gname = g.Ast.gname;
          gelt =
            (match g.Ast.gelt with
             | Ast.EltInt -> Ir.EltInt
             | Ast.EltFloat -> Ir.EltFloat);
          gsize = g.Ast.gsize;
          ginit = written_init g.Ast.gsize g.Ast.ginit;
        })
      p.Ast.globals
  in
  { Ir.globals; funcs; main = "main" }

(* Front-end convenience: parse, typecheck, lower.  Each stage is an
   Obs span (cat "frontend") and a duration histogram, so a trace of any
   pipeline shows where front-end time goes. *)
let parse_ms = Obs.Metrics.histogram "frontend.parse_ms"
let typecheck_ms = Obs.Metrics.histogram "frontend.typecheck_ms"
let lower_ms = Obs.Metrics.histogram "frontend.lower_ms"

let compile_source (src : string) : (Ir.program, string) result =
  match
    Obs.span ~cat:"frontend" ~hist:parse_ms "frontend.parse" (fun () ->
        Parser.parse_result src)
  with
  | Error e -> Error e
  | Ok ast -> (
    match
      Obs.span ~cat:"frontend" ~hist:typecheck_ms "frontend.typecheck"
        (fun () -> Typecheck.check_result ast)
    with
    | Error e -> Error e
    | Ok () -> (
      match
        Obs.span ~cat:"frontend" ~hist:lower_ms "frontend.lower" (fun () ->
            lower ast)
      with
      | ir -> Ok ir
      | exception Error e -> Error ("lowering error: " ^ e)))

let compile_source_exn src =
  match compile_source src with
  | Ok p -> p
  | Error e -> failwith e
