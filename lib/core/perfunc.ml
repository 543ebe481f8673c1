module Ir = Mira.Ir

(* Method-specific compilation: choose an optimization level per FUNCTION
   with a learned classifier, instead of one level for the whole program.
   This extends the reproduction with the paper author's own follow-on
   ("Method-specific dynamic compilation using logistic regression",
   OOPSLA'06, the paper's ref [53]): there, a logistic-regression model
   picked the JIT optimization level per method from cheap method
   features; here, a multiclass model picks one of a few per-function
   pipelines from the function's static features.

   As in that JIT setting, the objective is TOTAL cost: compilation
   cycles (proportional to function size times pipeline length) plus
   execution cycles.  Aggressively optimizing a cold function wastes more
   compile time than it recovers at run time; under-optimizing a hot
   loop leaves cycles on the table.  The model must learn which functions
   deserve which tier from their static features alone.

   Training data generation follows the Sec. II-A recipe: for every
   function of every training program, every class is actually tried
   (the rest of the program held at the light pipeline) and the instance
   is labelled with the winner on total cost. *)

module Pass = Passes.Pass

(* the per-function pipeline classes the model chooses between; all
   function-local *)
let classes : (string * Pass.t list) list =
  [
    ("light", Pass.[ Simplify_cfg; Const_fold; Const_prop; Peephole; Dce ]);
    ( "loop-heavy",
      Pass.[ Const_prop; Const_fold; Licm; Unroll4; Cse; Copy_prop; Dce;
             Simplify_cfg ] );
    ( "cleanup",
      Pass.[ Copy_prop; Cse; Peephole; Dce; Simplify_cfg ] );
  ]

let nclasses = List.length classes

let class_seq i = snd (List.nth classes i)
let class_name i = fst (List.nth classes i)

(* compile-time charge: cycles per (IR instruction x pass applied), the
   knob that creates the JIT tiering trade-off *)
let compile_cost_per_instr_pass = 80

let compile_cost (p : Ir.program) (fname : string) (cls : int) : int =
  let f = Ir.find_func p fname in
  compile_cost_per_instr_pass * Ir.func_size f * List.length (class_seq cls)

(* total compile cost of a per-function assignment *)
let total_compile_cost (p : Ir.program) (choice : string -> int) : int =
  Ir.SMap.fold
    (fun fname _ acc -> acc + compile_cost p fname (choice fname))
    p.Ir.funcs 0

(* all function names of a program *)
let function_names (p : Ir.program) : string list =
  List.map fst (Ir.SMap.bindings p.Ir.funcs)

type instance = {
  iprog : string;
  ifunc : string;
  feats : float array;
  label : int;              (* winning class *)
  costs : float array;      (* measured cycles per class *)
}

(* label every function of [p] by trying each class on it (the rest of
   the program compiled with the light pipeline) *)
let gen_instances ?(config = Mach.Config.default) ~(prog : string)
    (p : Ir.program) : instance list =
  let light = class_seq 0 in
  let names = function_names p in
  List.filter_map
    (fun fname ->
      let base =
        List.fold_left
          (fun acc g ->
            if g = fname then acc
            else Pass.apply_sequence_to_function light acc g)
          p names
      in
      let costs =
        Array.init nclasses (fun c ->
            let p' = Pass.apply_sequence_to_function (class_seq c) base fname in
            match Mach.Sim.run ~config p' with
            | r ->
              float_of_int (r.Mach.Sim.cycles + compile_cost p fname c)
            | exception (Mira.Interp.Trap _ | Mira.Interp.Out_of_fuel) ->
              infinity)
      in
      let label = Mlkit.Linalg.argmin costs in
      (* skip functions where the choice does not matter (all ties):
         they teach the model nothing *)
      let lo = Array.fold_left min infinity costs in
      let hi = Array.fold_left max neg_infinity costs in
      if hi -. lo < 0.0005 *. lo then None
      else
        Some
          {
            iprog = prog;
            ifunc = fname;
            feats = Features.to_vector (Features.extract_func p fname);
            label;
            costs;
          })
    names

type t = { model : Mlkit.Dtree.t }

let train (instances : instance list) : t option =
  match instances with
  | [] -> None
  | _ ->
    let xs = Array.of_list (List.map (fun i -> i.feats) instances) in
    let ys = Array.of_list (List.map (fun i -> i.label) instances) in
    let d0 = Mlkit.Dataset.make xs ys in
    (* force the class count so classes unseen in this training set keep
       their identity in predictions *)
    let d = { d0 with Mlkit.Dataset.nclasses = max d0.Mlkit.Dataset.nclasses nclasses } in
    Some { model = Mlkit.Dtree.fit d }

(* choose a class for one function *)
let choose (t : t) (p : Ir.program) (fname : string) : int =
  Mlkit.Dtree.predict t.model (Features.to_vector (Features.extract_func p fname))

(* compile: every function gets its predicted pipeline *)
let compile (t : t) (p : Ir.program) : Ir.program * (string * string) list =
  let choicemap =
    List.map (fun fname -> (fname, choose t p fname)) (function_names p)
  in
  let p' =
    Pass.apply_per_function
      (fun fname -> class_seq (List.assoc fname choicemap))
      p
  in
  (p', List.map (fun (f, c) -> (f, class_name c)) choicemap)
