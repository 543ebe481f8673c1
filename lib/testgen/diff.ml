module Interp = Mira.Interp

(* Strict value representation: floats by bit pattern, so an engine that
   returns -0.0 where the other returns 0.0 (or a different NaN payload)
   is caught even though both print the same. *)
let value_repr (v : Interp.value) : string =
  match v with
  | Interp.VFloat f ->
    Printf.sprintf "%s[bits %Lx]" (Interp.value_to_string v)
      (Int64.bits_of_float f)
  | _ -> Interp.value_to_string v

let field name ref_v flat_v acc =
  if ref_v = flat_v then acc
  else Printf.sprintf "%s: ref=%s flat=%s" name ref_v flat_v :: acc

(* ------------------------------------------------------------------ *)
(* Plain interpretation *)

type 'a outcome = Done of 'a | Trapped of string | Exhausted

let outcome_repr = function
  | Done _ -> "finished"
  | Trapped m -> Printf.sprintf "trap %S" m
  | Exhausted -> "out of fuel"

let catching f =
  match f () with
  | r -> Done r
  | exception Interp.Trap m -> Trapped m
  | exception Interp.Out_of_fuel -> Exhausted

let diff_plain ?fuel (p : Mira.Ir.program) : string list =
  let a = catching (fun () -> Interp.run ?fuel p) in
  let b = catching (fun () -> Mira.Decode.run_program ?fuel p) in
  match (a, b) with
  | Done ra, Done rb ->
    []
    |> field "ret" (value_repr ra.Interp.ret) (value_repr rb.Interp.ret)
    |> field "output"
         (Printf.sprintf "%S" ra.Interp.output)
         (Printf.sprintf "%S" rb.Interp.output)
    |> field "steps"
         (string_of_int ra.Interp.steps)
         (string_of_int rb.Interp.steps)
    |> List.rev
  | a, b ->
    if outcome_repr a = outcome_repr b then []
    else [ Printf.sprintf "outcome: ref=%s flat=%s" (outcome_repr a)
             (outcome_repr b) ]

(* ------------------------------------------------------------------ *)
(* Under the machine simulator: three-way, with the hooked reference
   interpreter as the semantics-and-model oracle.  Flat (the production
   engine: Decode.Exec with Flatsim's model) and the trace engine
   (Decode.Exec with Mtrace's model, then Replay, entered as a
   one-config Sim.run_grid) are each compared field-by-field against
   Ref.  Both run the same dispatch loop and share the plan, block
   counters, cache and predictor code, so a trace-only disagreement
   means the counting model, the recorded streams or the count pricing
   drifted from the flat engine's; a both-engines disagreement points
   at the shared loop, decode or model code.
   Messages carry the config name and the disagreeing engine, e.g.
   "cycles[c6713_like]: ref=412 trace=409". *)

let diff_sim ?(config = Mach.Config.default) ?fuel (p : Mira.Ir.program) :
    string list =
  let tag = config.Mach.Config.name in
  let run e = catching (fun () -> Mach.Sim.run ~engine:e ~config ?fuel p) in
  let a = run Mach.Sim.Ref in
  let against ename b =
    let fieldt name ref_v alt_v acc =
      if ref_v = alt_v then acc
      else
        Printf.sprintf "%s[%s]: ref=%s %s=%s" name tag ref_v ename alt_v
        :: acc
    in
    match (a, b) with
    | Done ra, Done rb ->
      let counters acc =
        List.fold_left
          (fun acc c ->
            fieldt
              (Printf.sprintf "counter %s" (Mach.Counters.name c))
              (string_of_int (Mach.Counters.get ra.Mach.Sim.counters c))
              (string_of_int (Mach.Counters.get rb.Mach.Sim.counters c))
              acc)
          acc Mach.Counters.all
      in
      []
      |> fieldt "ret" (value_repr ra.Mach.Sim.ret)
           (value_repr rb.Mach.Sim.ret)
      |> fieldt "output"
           (Printf.sprintf "%S" ra.Mach.Sim.output)
           (Printf.sprintf "%S" rb.Mach.Sim.output)
      |> fieldt "steps"
           (string_of_int ra.Mach.Sim.steps)
           (string_of_int rb.Mach.Sim.steps)
      |> fieldt "cycles"
           (string_of_int ra.Mach.Sim.cycles)
           (string_of_int rb.Mach.Sim.cycles)
      |> counters
      |> List.rev
    | a, b ->
      if outcome_repr a = outcome_repr b then []
      else
        [ Printf.sprintf "sim outcome[%s]: ref=%s %s=%s" tag
            (outcome_repr a) ename (outcome_repr b) ]
  in
  (* fourth leg: the persisted-trace path.  Encode/decode the trace
     through Mtrace's on-disk codec (what Engine.Tstore stores, minus
     the store's framing/checksums, which its own tests cover) and
     replay the decoded trace — a disagreement here means the codec
     dropped or distorted something the round-trip equality below
     missed, or vice versa.  A trapped or exhausted trace keeps only
     its outcome, output and steps, and its replay re-raises, so for
     those this leg compares the outcome alone. *)
  let store_leg () =
    let tr = Mach.Mtrace.generate_program ?fuel p in
    match Mach.Mtrace.decode (Mach.Mtrace.encode tr) with
    | Error m ->
      [ Printf.sprintf "trace codec[%s]: decode failed: %s" tag m ]
    | Ok tr' ->
      if not (Mach.Mtrace.equal tr tr') then
        [ Printf.sprintf "trace codec[%s]: round-trip not bit-exact" tag ]
      else
        against "store" (catching (fun () -> Mach.Replay.run ~config tr'))
  in
  against "flat" (run Mach.Sim.Flat)
  @ against "trace"
      (catching (fun () ->
           (Mach.Sim.run_grid ?fuel ~configs:[| config |] p).(0)))
  @ store_leg ()

(* every preset config: the issue widths, cache geometries and predictor
   sizes differ enough that a model bug rarely hides on all three *)
let diff_sim_presets ?fuel (p : Mira.Ir.program) : string list =
  List.concat_map (fun c -> diff_sim ~config:c ?fuel p) Mach.Config.all

let diff_all ?fuel p = diff_plain ?fuel p @ diff_sim_presets ?fuel p

let disagrees ?(transform = fun p -> p) (src : string) : bool =
  match Mira.Lower.compile_source src with
  | Error _ -> false
  | Ok p -> (
    match transform p with
    | p -> diff_all p <> []
    (* a transform that itself crashes is a pass bug, not an engine
       mismatch; the pass-oracle fuzz line covers those *)
    | exception _ -> false)
