(* Three-address intermediate representation.

   A function is a control-flow graph of basic blocks over an unbounded set
   of virtual registers.  The IR is deliberately *not* SSA: registers are
   mutable cells, which makes phase-ordering effects (the object of study in
   the paper) directly visible to the passes.  All dataflow passes therefore
   run classic iterative analyses.

   Memory: the only memory objects are one-dimensional arrays.  An array
   value is a runtime handle (base address + length); handles come from
   local-array slots, global symbols, or array-typed parameters. *)

type reg = int
type label = int

module LMap = Map.Make (Int)
module LSet = Set.Make (Int)
module RSet = Set.Make (Int)
module SMap = Map.Make (String)

type operand =
  | Reg of reg
  | Cint of int
  | Cfloat of float
  | Cbool of bool
  | AGlob of string   (* handle of a global array *)
  | ALoc of string    (* handle of a local (frame) array *)

type arith = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type farith = FAdd | FSub | FMul | FDiv
type cmp = Eq | Ne | Lt | Le | Gt | Ge

type instr =
  | Bin of arith * reg * operand * operand
  | Fbin of farith * reg * operand * operand
  | Icmp of cmp * reg * operand * operand
  | Fcmp of cmp * reg * operand * operand
  | Not of reg * operand                       (* boolean negation *)
  | Mov of reg * operand
  | I2f of reg * operand
  | F2i of reg * operand
  | Load of reg * operand * operand            (* dst <- arr[idx] *)
  | Store of operand * operand * operand       (* arr[idx] <- value *)
  | Alen of reg * operand                      (* dst <- len arr *)
  | Call of reg option * string * operand list
  | Print of operand

type term =
  | Jmp of label
  | Br of operand * label * label              (* cond, then, else *)
  | Ret of operand option

type block = { instrs : instr list; term : term }

type elt =
  | EltInt
  | EltFloat
  | EltInt32
      (* packed 4-byte unsigned element, produced by the array-packing
         optimization; stores are masked to 32 bits, loads zero-extend.
         Only global arrays whose stored values are provably in [0, 2^32)
         are narrowed, so packing is observation-equivalent. *)

type func = {
  name : string;
  params : reg list;
  nregs : int;                 (* registers 0..nregs-1 are in use *)
  entry : label;
  blocks : block LMap.t;
  nlabels : int;               (* labels 0..nlabels-1 may be in use *)
  locals : (string * elt * int) list;  (* local arrays: name, elt, size *)
}

type global = { gname : string; gelt : elt; gsize : int; ginit : float array }

type program = { globals : global list; funcs : func SMap.t; main : string }

(* ------------------------------------------------------------------ *)
(* Construction helpers *)

let block ?(instrs = []) term = { instrs; term }

let find_block f l =
  match LMap.find_opt l f.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir.find_block: no block %d in %s" l f.name)

let fresh_reg f = ({ f with nregs = f.nregs + 1 }, f.nregs)

let fresh_label f = ({ f with nlabels = f.nlabels + 1 }, f.nlabels)

let find_func p name =
  match SMap.find_opt name p.funcs with
  | Some f -> f
  | None -> invalid_arg ("Ir.find_func: no function " ^ name)

let update_func p f = { p with funcs = SMap.add f.name f p.funcs }

let map_funcs fn p = { p with funcs = SMap.map fn p.funcs }

(* ------------------------------------------------------------------ *)
(* Structural queries *)

let def_of = function
  | Bin (_, d, _, _) | Fbin (_, d, _, _) | Icmp (_, d, _, _)
  | Fcmp (_, d, _, _) | Not (d, _) | Mov (d, _) | I2f (d, _) | F2i (d, _)
  | Load (d, _, _) | Alen (d, _) ->
    Some d
  | Call (d, _, _) -> d
  | Store _ | Print _ -> None

let ops_of = function
  | Bin (_, _, a, b) | Fbin (_, _, a, b) | Icmp (_, _, a, b)
  | Fcmp (_, _, a, b) ->
    [ a; b ]
  | Not (_, a) | Mov (_, a) | I2f (_, a) | F2i (_, a) | Alen (_, a) -> [ a ]
  | Load (_, a, i) -> [ a; i ]
  | Store (a, i, v) -> [ a; i; v ]
  | Call (_, _, args) -> args
  | Print a -> [ a ]

let uses_of i =
  List.filter_map (function Reg r -> Some r | _ -> None) (ops_of i)

let term_uses = function
  | Jmp _ -> []
  | Br (Reg r, _, _) -> [ r ]
  | Br (_, _, _) -> []
  | Ret (Some (Reg r)) -> [ r ]
  | Ret _ -> []

let successors = function
  | Jmp l -> [ l ]
  | Br (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Ret _ -> []

(* Rebuild an instruction with operands mapped through [fo] and the defined
   register mapped through [fd]. *)
let map_instr ~fo ~fd = function
  | Bin (op, d, a, b) -> Bin (op, fd d, fo a, fo b)
  | Fbin (op, d, a, b) -> Fbin (op, fd d, fo a, fo b)
  | Icmp (op, d, a, b) -> Icmp (op, fd d, fo a, fo b)
  | Fcmp (op, d, a, b) -> Fcmp (op, fd d, fo a, fo b)
  | Not (d, a) -> Not (fd d, fo a)
  | Mov (d, a) -> Mov (fd d, fo a)
  | I2f (d, a) -> I2f (fd d, fo a)
  | F2i (d, a) -> F2i (fd d, fo a)
  | Load (d, a, i) -> Load (fd d, fo a, fo i)
  | Store (a, i, v) -> Store (fo a, fo i, fo v)
  | Alen (d, a) -> Alen (fd d, fo a)
  | Call (d, f, args) -> Call (Option.map fd d, f, List.map fo args)
  | Print a -> Print (fo a)

let map_term ~fo ~fl = function
  | Jmp l -> Jmp (fl l)
  | Br (c, t, e) -> Br (fo c, fl t, fl e)
  | Ret r -> Ret (Option.map fo r)

(* Number of static instructions, a proxy for code size (used by the
   code-size experiments, cf. Cooper et al.). *)
let func_size f =
  LMap.fold (fun _ b acc -> acc + List.length b.instrs + 1) f.blocks 0

let program_size p = SMap.fold (fun _ f acc -> acc + func_size f) p.funcs 0

let block_count f = LMap.cardinal f.blocks

(* ------------------------------------------------------------------ *)
(* Pretty printing *)

let pp_operand ppf = function
  | Reg r -> Fmt.pf ppf "r%d" r
  | Cint n -> Fmt.pf ppf "%d" n
  | Cfloat f -> Fmt.pf ppf "%h" f
  | Cbool b -> Fmt.pf ppf "%b" b
  | AGlob s -> Fmt.pf ppf "@%s" s
  | ALoc s -> Fmt.pf ppf "%%%s" s

let string_of_arith = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"

let string_of_farith = function
  | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"

let string_of_cmp = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let pp_instr ppf i =
  let op = pp_operand in
  match i with
  | Bin (o, d, a, b) ->
    Fmt.pf ppf "r%d = %s %a, %a" d (string_of_arith o) op a op b
  | Fbin (o, d, a, b) ->
    Fmt.pf ppf "r%d = %s %a, %a" d (string_of_farith o) op a op b
  | Icmp (o, d, a, b) ->
    Fmt.pf ppf "r%d = icmp.%s %a, %a" d (string_of_cmp o) op a op b
  | Fcmp (o, d, a, b) ->
    Fmt.pf ppf "r%d = fcmp.%s %a, %a" d (string_of_cmp o) op a op b
  | Not (d, a) -> Fmt.pf ppf "r%d = not %a" d op a
  | Mov (d, a) -> Fmt.pf ppf "r%d = mov %a" d op a
  | I2f (d, a) -> Fmt.pf ppf "r%d = i2f %a" d op a
  | F2i (d, a) -> Fmt.pf ppf "r%d = f2i %a" d op a
  | Load (d, a, ix) -> Fmt.pf ppf "r%d = load %a[%a]" d op a op ix
  | Store (a, ix, v) -> Fmt.pf ppf "store %a[%a] <- %a" op a op ix op v
  | Alen (d, a) -> Fmt.pf ppf "r%d = len %a" d op a
  | Call (None, f, args) ->
    Fmt.pf ppf "call %s(%a)" f Fmt.(list ~sep:(any ", ") op) args
  | Call (Some d, f, args) ->
    Fmt.pf ppf "r%d = call %s(%a)" d f Fmt.(list ~sep:(any ", ") op) args
  | Print a -> Fmt.pf ppf "print %a" op a

let pp_term ppf = function
  | Jmp l -> Fmt.pf ppf "jmp L%d" l
  | Br (c, t, e) -> Fmt.pf ppf "br %a, L%d, L%d" pp_operand c t e
  | Ret None -> Fmt.pf ppf "ret"
  | Ret (Some v) -> Fmt.pf ppf "ret %a" pp_operand v

let pp_func ppf f =
  Fmt.pf ppf "func %s(%a) entry=L%d@\n" f.name
    Fmt.(list ~sep:(any ", ") (fun ppf r -> Fmt.pf ppf "r%d" r))
    f.params f.entry;
  List.iter
    (fun (n, elt, sz) ->
      Fmt.pf ppf "  local %s: %s[%d]@\n" n
        (match elt with
         | EltInt -> "int"
         | EltInt32 -> "int32"
         | EltFloat -> "float")
        sz)
    f.locals;
  LMap.iter
    (fun l b ->
      Fmt.pf ppf "L%d:@\n" l;
      List.iter (fun i -> Fmt.pf ppf "  %a@\n" pp_instr i) b.instrs;
      Fmt.pf ppf "  %a@\n" pp_term b.term)
    f.blocks

let pp_program ppf p =
  List.iter
    (fun g ->
      Fmt.pf ppf "global %s[%d]@\n" g.gname g.gsize)
    p.globals;
  SMap.iter (fun _ f -> Fmt.pf ppf "%a@\n" pp_func f) p.funcs

let func_to_string f = Fmt.str "%a" pp_func f
let to_string p = Fmt.str "%a" pp_program p

(* ------------------------------------------------------------------ *)
(* Well-formedness check: every referenced label exists, entry exists,
   register indices are within bounds, local/global array references
   resolve.  Passes are required to preserve well-formedness; the test
   suite checks this after every pass on every workload. *)

type wf_error = string

let check_func (globals : global list) (f : func) : wf_error list =
  let errs = ref [] in
  let add fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  if not (LMap.mem f.entry f.blocks) then
    add "%s: entry L%d missing" f.name f.entry;
  let locals = List.map (fun (n, _, _) -> n) f.locals in
  let globs = List.map (fun g -> g.gname) globals in
  let check_op where = function
    | Reg r ->
      if r < 0 || r >= f.nregs then add "%s: %s: bad reg r%d" f.name where r
    | ALoc n ->
      if not (List.mem n locals) then
        add "%s: %s: unknown local array %s" f.name where n
    | AGlob n ->
      if not (List.mem n globs) then
        add "%s: %s: unknown global array %s" f.name where n
    | Cint _ | Cfloat _ | Cbool _ -> ()
  in
  LMap.iter
    (fun l b ->
      let where = Printf.sprintf "L%d" l in
      List.iter
        (fun i ->
          List.iter (check_op where) (ops_of i);
          match def_of i with
          | Some d when d < 0 || d >= f.nregs ->
            add "%s: %s: bad def r%d" f.name where d
          | _ -> ())
        b.instrs;
      (match b.term with
       | Br (c, _, _) -> check_op where c
       | Ret (Some v) -> check_op where v
       | _ -> ());
      List.iter
        (fun s ->
          if not (LMap.mem s f.blocks) then
            add "%s: %s: successor L%d missing" f.name where s)
        (successors b.term))
    f.blocks;
  List.rev !errs

let check_program (p : program) : wf_error list =
  let errs =
    SMap.fold (fun _ f acc -> check_func p.globals f @ acc) p.funcs []
  in
  let errs =
    if SMap.mem p.main p.funcs then errs
    else Printf.sprintf "main function %s missing" p.main :: errs
  in
  List.fold_left
    (fun errs g ->
      if Array.length g.ginit <= g.gsize then errs
      else
        Printf.sprintf "global %s: %d initializers for %d elements" g.gname
          (Array.length g.ginit) g.gsize
        :: errs)
    errs p.globals
