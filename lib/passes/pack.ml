module Ir = Mira.Ir

(* Array packing: narrow global int arrays from 8-byte to 4-byte elements
   when every value ever stored into them is provably in [0, 2^32).

   This models the paper's Sec. III-B example, where the learned
   performance-counter model discovered that converting 64-bit pointers to
   32-bit was the key optimization for the memory-bound 181.mcf — an
   optimization the fixed -Ofast pipeline does not perform.  Like pointer
   narrowing, packing halves the footprint of the affected data and doubles
   the effective cache capacity and spatial locality, without changing any
   observable value.

   Safety analysis (whole-program, conservative):
   - only global int arrays are considered;
   - the array handle must never escape: it may not be passed as a call
     argument anywhere (a callee could store unproven values through the
     alias);
   - every initializer must be in [0, 2^32);
   - for every `store g[i] <- v`, the value operand must be *narrow*:
       - a constant in range,
       - a register whose every definition in the enclosing function is a
         narrow instruction:
           x & m        with m a constant in [0, 2^32)
           x >> k       with k a constant >= 1 and x narrow
           mov narrow
           load from a narrowable candidate (fixpoint)
   The candidate set shrinks to a fixpoint; survivors are rewritten to
   EltInt32. *)

module SMap = Ir.SMap
module LMap = Ir.LMap

let in_range32_const n = n >= 0 && n < 4294967296

(* all defining instructions of each register in a function *)
let defs_table (f : Ir.func) : (int, Ir.instr list) Hashtbl.t =
  let t = Hashtbl.create 64 in
  LMap.iter
    (fun _ (b : Ir.block) ->
      List.iter
        (fun i ->
          match Ir.def_of i with
          | Some d ->
            Hashtbl.replace t d
              (i :: Option.value ~default:[] (Hashtbl.find_opt t d))
          | None -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  t

(* is operand [o] provably in [0, 2^32) given the candidate set? *)
let rec narrow_operand ~fuel (candidates : unit SMap.t) defs (o : Ir.operand) :
    bool =
  fuel > 0
  &&
  match o with
  | Ir.Cint n -> in_range32_const n
  | Ir.Reg r -> begin
    match Hashtbl.find_opt defs r with
    | None | Some [] -> false   (* parameter or undefined: unknown *)
    | Some ds ->
      List.for_all (narrow_instr ~fuel:(fuel - 1) candidates defs) ds
  end
  | _ -> false

and narrow_instr ~fuel candidates defs (i : Ir.instr) : bool =
  match i with
  | Ir.Bin (Ir.And, _, _, Ir.Cint m) | Ir.Bin (Ir.And, _, Ir.Cint m, _) ->
    in_range32_const m
  | Ir.Bin (Ir.Shr, _, x, Ir.Cint k) when k >= 1 ->
    narrow_operand ~fuel candidates defs x
  | Ir.Mov (_, src) -> narrow_operand ~fuel candidates defs src
  | Ir.Load (_, Ir.AGlob g, _) -> SMap.mem g candidates
  | _ -> false

(* does the candidate [g] survive one checking round? *)
let check_candidate (p : Ir.program) (candidates : unit SMap.t) (g : string) :
    bool =
  Ir.SMap.for_all
    (fun _ (f : Ir.func) ->
      let defs = defs_table f in
      LMap.for_all
        (fun _ (b : Ir.block) ->
          List.for_all
            (fun i ->
              match i with
              | Ir.Call (_, _, args) ->
                (* handle must not escape *)
                not (List.mem (Ir.AGlob g) args)
              | Ir.Store (Ir.AGlob g', _, v) when g' = g ->
                narrow_operand ~fuel:8 candidates defs v
              | _ -> true)
            b.Ir.instrs)
        f.Ir.blocks)
    p.Ir.funcs

let narrowable_globals (p : Ir.program) : string list =
  let init_candidates =
    List.fold_left
      (fun acc (g : Ir.global) ->
        (* [ginit] holds only the written prefix; the implicit zero tail
           is in range, so checking the prefix is exact *)
        if
          g.Ir.gelt = Ir.EltInt
          && Array.for_all
               (fun v ->
                 Float.is_integer v && in_range32_const (int_of_float v))
               g.Ir.ginit
        then SMap.add g.Ir.gname () acc
        else acc)
      SMap.empty p.Ir.globals
  in
  let rec fixpoint cands =
    let survivors =
      SMap.filter (fun g () -> check_candidate p cands g) cands
    in
    if SMap.cardinal survivors = SMap.cardinal cands then cands
    else fixpoint survivors
  in
  List.map fst (SMap.bindings (fixpoint init_candidates))

let run (p : Ir.program) : Ir.program =
  let narrow = narrowable_globals p in
  if narrow = [] then p
  else
    {
      p with
      Ir.globals =
        List.map
          (fun (g : Ir.global) ->
            if List.mem g.Ir.gname narrow then { g with Ir.gelt = Ir.EltInt32 }
            else g)
          p.Ir.globals;
    }
