module Ir = Mira.Ir

(* The paper's Sec. II-A worked phrasing of phase ordering as a learning
   problem: "given certain optimizations already applied and two possible
   optimizations to apply next, choose which of the two to perform", used
   to run a tournament among all passes at every step.

   Training instances are generated exactly as the methodology prescribes:
   at each decision point (a partially optimized program), both choices
   are pursued — each candidate pass is applied and the result evaluated
   with the machine model — and the instance is labelled with the winner.
   Features are the current program's static features plus the one-hot
   identities of the two candidate passes.  A decision tree is the
   learner (cheap, and its output is integrable as code, per Sec. II-A).

   At compile time, [order] runs a single-elimination tournament over all
   13 passes at each step, applies the winner, and repeats for
   [steps] rounds — producing a program-specific phase ordering without
   any target runs. *)

module Pass = Passes.Pass

(* "To evaluate a given choice, you need to schedule the rest of the
   block... you can run to the end of the problem using one or more
   heuristics already known to be competent" (Sec. II-A).  Our completion
   heuristic is a generic cleanup pipeline; candidate passes are compared
   by the cost of candidate-then-completion, which gives enabling passes
   (cprop before unroll, etc.) their true value instead of zero. *)
let completion : Pass.t list =
  Pass.[ Const_fold; Const_prop; Copy_prop; Cse; Dce; Simplify_cfg ]

type instance = { feats : float array; label : int (* 1 = first wins *) }

(* observability: training-data generation and compile-time ordering are
   the two tournament phases worth seeing in a trace *)
let m_instances = Obs.Metrics.counter "tournament.instances"

let npass = Pass.count

let instance_features (p : Ir.program) (a : Pass.t) (b : Pass.t) : float array
    =
  let base = Features.vector_of_program p in
  let onehot x =
    Array.init npass (fun i -> if i = Pass.to_index x then 1.0 else 0.0)
  in
  Array.concat [ base; onehot a; onehot b ]

(* Generate training instances from one program.  Decision points are the
   program states reached by *random* pass prefixes (length 0..steps-1):
   greedy rollouts would concentrate all instances on already-optimized
   states, while the tournament at compile time must decide well from
   arbitrary intermediate states.  At each state both candidate choices
   are pursued and evaluated, per the methodology; near-ties (< 0.2%
   apart) are discarded as label noise. *)
let gen_instances ~engine ?(seed = 1) ?(steps = 4) ?(pairs_per_step = 6)
    (p : Ir.program) : instance list =
  let rng = Random.State.make [| seed |] in
  let out = ref [] in
  (* candidates are evaluated as (state, candidate :: completion) so the
     engine sees the shared state: its trie compiles the completion tail
     once per distinct intermediate IR, and candidates whose pass is a
     no-op on this state dedup to a single simulation.  The measured
     program is apply_sequence (candidate :: completion) state. *)
  for step = 0 to steps - 1 do
    (if not (Obs.Trace.enabled ()) then fun f -> f ()
     else
       Obs.Trace.with_span ~cat:"search"
         ~args:[ ("step", Obs.Trace.Int step) ]
         "tournament.step")
    @@ fun () ->
    (* a fresh random decision point of prefix length [step] *)
    let prefix =
      List.init step (fun _ -> List.nth Pass.all (Random.State.int rng npass))
    in
    let state = Pass.apply_sequence prefix p in
    let costs = Hashtbl.create npass in
    (* with a parallel engine, score every candidate of this decision
       point in one batch: a few eagerly evaluated losers buy a
       pool-wide fan-out (and a warm cache makes them free anyway) *)
    if Engine.jobs engine > 1 then begin
      let candidates =
        List.map (fun pass -> (state, pass :: completion)) Pass.all
      in
      let outs = Engine.eval_many engine candidates in
      List.iteri
        (fun i pass -> Hashtbl.replace costs pass outs.(i).Engine.cost)
        Pass.all
    end;
    let cost_of pass =
      match Hashtbl.find_opt costs pass with
      | Some c -> c
      | None ->
        let c = (Engine.eval engine state (pass :: completion)).Engine.cost in
        Hashtbl.replace costs pass c;
        c
    in
    for _k = 1 to pairs_per_step do
      let a = List.nth Pass.all (Random.State.int rng npass) in
      let b = List.nth Pass.all (Random.State.int rng npass) in
      if a <> b then begin
        let ca = cost_of a and cb = cost_of b in
        if Float.abs (ca -. cb) > 0.002 *. Float.min ca cb then begin
          (* symmetric pair of instances *)
          out :=
            { feats = instance_features state a b;
              label = (if ca < cb then 1 else 0) }
            :: { feats = instance_features state b a;
                 label = (if cb < ca then 1 else 0) }
            :: !out
        end
      end
    done
  done;
  Obs.Metrics.incr ~by:(List.length !out) m_instances;
  !out

type t = { tree : Mlkit.Dtree.t }

let train (instances : instance list) : t option =
  match instances with
  | [] -> None
  | _ ->
    let xs = Array.of_list (List.map (fun i -> i.feats) instances) in
    let ys = Array.of_list (List.map (fun i -> i.label) instances) in
    let d = Mlkit.Dataset.make xs ys in
    let params =
      { Mlkit.Dtree.default_params with Mlkit.Dtree.max_depth = 10 }
    in
    Some { tree = Mlkit.Dtree.fit ~params d }

(* does the model prefer [a] over [b] on program [p]? *)
let prefers (t : t) (p : Ir.program) (a : Pass.t) (b : Pass.t) : bool =
  Mlkit.Dtree.predict t.tree (instance_features p a b) = 1

(* Derive a phase ordering by running a tournament at each step; the
   returned sequence ends with the completion cleanup the labels assumed. *)
let order (t : t) ?(steps = 5) (p : Ir.program) : Pass.t list =
  Obs.span ~cat:"search" "tournament.order" @@ fun () ->
  let current = ref p in
  let chosen = ref [] in
  let unroll_used = ref false in
  for _ = 1 to steps do
    let candidates =
      if !unroll_used then
        List.filter (fun x -> not (Pass.is_unroll x)) Pass.all
      else Pass.all
    in
    let winner =
      List.fold_left
        (fun champ cand ->
          if prefers t !current cand champ then cand else champ)
        (List.hd candidates) (List.tl candidates)
    in
    if Pass.is_unroll winner then unroll_used := true;
    chosen := winner :: !chosen;
    current := Pass.apply winner !current
  done;
  List.rev_append !chosen completion
