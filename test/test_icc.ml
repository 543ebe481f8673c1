(* Tests for the intelligent-compiler core: feature extraction,
   characterization, the performance-counter model, the optimization
   controller, the tournament predictor, and the dynamic optimizer.
   Small programs keep every test fast. *)

let compile = Mira.Lower.compile_source_exn

let tiny_loop =
  compile
    {|fn main() -> int {
        var s: int = 0;
        for i = 0 to 200 { s = s + i * 3; }
        return s % 1000;
      }|}

let tiny_float =
  compile
    {|fn main() -> int {
        var acc: float = 0.0;
        for i = 0 to 100 { acc = acc + float(i) * 0.5; }
        print(acc);
        return int(acc) % 100;
      }|}

let tiny_mem_src =
  {|global g: int[512];
    fn main() -> int {
      for i = 0 to 512 { g[i] = i; }
      var s: int = 0;
      for i = 0 to 512 { s = s + g[i]; }
      return s % 997;
    }|}

let tiny_mem = compile tiny_mem_src

let tiny_branchy =
  compile
    {|fn main() -> int {
        var s: int = 0;
        for i = 0 to 300 {
          if (i % 3 == 0) { s = s + 1; } else { s = s - 1; }
          if (i % 7 == 0) { s = s + 5; }
        }
        return s;
      }|}

let tiny_rec =
  compile
    {|fn f(n: int) -> int { if (n < 2) { return 1; } return f(n - 1) + n; }
      fn main() -> int { return f(40); }|}

let training =
  [
    ("tloop", tiny_loop); ("tfloat", tiny_float); ("tmem", tiny_mem);
    ("tbranchy", tiny_branchy); ("trec", tiny_rec);
  ]

let small_kb =
  lazy (Icc.Characterize.build_kb ~seed:7 ~per_program:12 training)

(* ------------------------------------------------------------------ *)
(* features *)

let test_feature_names_aligned () =
  let f = Icc.Features.extract tiny_loop in
  Alcotest.(check int) "all names produced"
    (List.length Icc.Features.names)
    (List.length f);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem_assoc n f))
    Icc.Features.names

let feat name p = List.assoc name (Icc.Features.extract p)

let test_feature_values () =
  Alcotest.(check (float 0.0)) "loop count" 1.0 (feat "n_loops" tiny_loop);
  Alcotest.(check (float 0.0)) "no fp in int loop" 0.0 (feat "fp_ops" tiny_loop);
  Alcotest.(check bool) "float prog has fp" true (feat "fp_frac" tiny_float > 0.1);
  Alcotest.(check bool) "mem prog has mem density" true
    (feat "mem_density" tiny_mem > feat "mem_density" tiny_loop);
  Alcotest.(check (float 0.0)) "recursion flag" 1.0 (feat "recursive" tiny_rec);
  Alcotest.(check (float 0.0)) "non-recursive" 0.0 (feat "recursive" tiny_loop);
  Alcotest.(check bool) "branchy density higher" true
    (feat "branch_density" tiny_branchy > feat "branch_density" tiny_mem)

let test_feature_vector_stable () =
  let v1 = Icc.Features.vector_of_program tiny_loop in
  let v2 = Icc.Features.vector_of_program tiny_loop in
  Alcotest.(check bool) "deterministic" true (v1 = v2);
  Alcotest.(check int) "dimension" (List.length Icc.Features.names)
    (Array.length v1)

(* ------------------------------------------------------------------ *)
(* characterization & KB building *)

let test_characterize_fields () =
  let c = Icc.Characterize.characterize ~prog:"tloop" tiny_loop in
  Alcotest.(check string) "prog name" "tloop" c.Knowledge.Kb.prog;
  Alcotest.(check string) "arch" "amd-like" c.Knowledge.Kb.arch;
  Alcotest.(check bool) "cycles positive" true (c.Knowledge.Kb.o0_cycles > 0);
  (* normalized counters are per-instruction rates *)
  List.iter
    (fun (n, v) ->
      if n <> "TOT_CYC" then
        Alcotest.(check bool) (n ^ " is a rate") true (v >= 0.0 && v <= 8.0))
    c.Knowledge.Kb.counters

let test_build_kb_contents () =
  let kb = Lazy.force small_kb in
  Alcotest.(check (list string)) "all programs characterized"
    [ "tbranchy"; "tfloat"; "tloop"; "tmem"; "trec" ]
    (Knowledge.Kb.programs kb);
  List.iter
    (fun (name, _) ->
      let exps = Knowledge.Kb.experiments kb ~prog:name ~arch:"amd-like" in
      (* 12 random + O0 + O2 + Ofast *)
      Alcotest.(check int) (name ^ " experiment count") 15 (List.length exps))
    training

let test_eval_sequence_traps_are_infinite () =
  let trapping = compile "fn main() -> int { var z: int = 0; return 1 / z; }" in
  Alcotest.(check bool) "trap -> infinity" true
    (Icc.Characterize.eval_sequence trapping [] = infinity)

(* ------------------------------------------------------------------ *)
(* PC model *)

let test_pcmodel_self_consistent () =
  let kb = Lazy.force small_kb in
  match Icc.Pcmodel.train kb ~arch:"amd-like" with
  | None -> Alcotest.fail "pcmodel failed to train"
  | Some model ->
    (* predicting with a training program's own counters returns that
       program as its own nearest neighbour *)
    List.iter
      (fun (name, _) ->
        match Knowledge.Kb.characterization kb ~prog:name ~arch:"amd-like" with
        | None -> Alcotest.fail "missing characterization"
        | Some c -> begin
          match Icc.Pcmodel.neighbors model c.Knowledge.Kb.counters with
          | (nearest, _, d) :: _ ->
            Alcotest.(check string) (name ^ " self-nearest") name nearest;
            Alcotest.(check bool) "distance 0" true (d < 1e-9)
          | [] -> Alcotest.fail "no neighbours"
        end)
      training

let test_pcmodel_prediction_beats_o0 () =
  let kb = Lazy.force small_kb in
  match Icc.Pcmodel.train kb ~arch:"amd-like" with
  | None -> Alcotest.fail "no model"
  | Some model ->
    (* a fresh program similar to tiny_loop *)
    let p =
      compile
        {|fn main() -> int {
            var s: int = 0;
            for i = 0 to 400 { s = s + i * 5; }
            return s % 777;
          }|}
    in
    let r = Mach.Sim.run p in
    let counters = Icc.Characterize.counter_assoc r.Mach.Sim.counters in
    let seq = Icc.Pcmodel.predict model counters in
    let c0 = Icc.Characterize.eval_sequence p [] in
    let c1 = Icc.Characterize.eval_sequence p seq in
    Alcotest.(check bool)
      (Printf.sprintf "predicted sequence helps (%.0f -> %.0f)" c0 c1)
      true (c1 <= c0)

let test_pcmodel_candidates_distinct () =
  let kb = Lazy.force small_kb in
  match Icc.Pcmodel.train kb ~arch:"amd-like" with
  | None -> Alcotest.fail "no model"
  | Some model ->
    let c =
      match Knowledge.Kb.characterization kb ~prog:"tloop" ~arch:"amd-like" with
      | Some c -> c
      | None -> Alcotest.fail "no char"
    in
    let cands = Icc.Pcmodel.candidates model ~k:5 c.Knowledge.Kb.counters in
    let keys = List.map Passes.Pass.sequence_to_string cands in
    Alcotest.(check int) "candidates are distinct"
      (List.length keys)
      (List.length (List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* controller *)

let test_one_shot_behaviour_preserved () =
  let kb = Lazy.force small_kb in
  let p = tiny_branchy in
  let c = Icc.Controller.one_shot kb p in
  Alcotest.(check int) "no target runs" 0 c.Icc.Controller.decision.Icc.Controller.evaluations;
  let before = Mira.Interp.observe p in
  let after = Mira.Interp.observe c.Icc.Controller.program in
  Alcotest.(check bool) "behaviour preserved" true
    (Mira.Interp.equal_observation before after)

let test_one_shot_counters_runs_profile () =
  let kb = Lazy.force small_kb in
  let c = Icc.Controller.one_shot_counters ~trials:2 kb tiny_mem in
  Alcotest.(check bool) "profiling run counted" true
    (c.Icc.Controller.decision.Icc.Controller.evaluations >= 1);
  let before = Mira.Interp.observe tiny_mem in
  let after = Mira.Interp.observe c.Icc.Controller.program in
  Alcotest.(check bool) "behaviour preserved" true
    (Mira.Interp.equal_observation before after)

let test_iterative_improves () =
  let kb = Lazy.force small_kb in
  let p = tiny_loop in
  let compiled, result = Icc.Controller.iterative ~seed:3 ~budget:8 kb p in
  let c0 = Icc.Characterize.eval_sequence p [] in
  Alcotest.(check bool)
    (Printf.sprintf "found improvement (%.0f -> %.0f)" c0
       result.Search.Strategies.best_cost)
    true
    (result.Search.Strategies.best_cost < c0);
  let before = Mira.Interp.observe p in
  let after = Mira.Interp.observe compiled.Icc.Controller.program in
  Alcotest.(check bool) "behaviour preserved" true
    (Mira.Interp.equal_observation before after)

(* everything of a controller result that must not depend on whether
   an engine served it *)
let decision_text (c : Icc.Controller.compiled) =
  let d = c.Icc.Controller.decision in
  Printf.sprintf "%s | %s | %d | %s"
    (Passes.Pass.sequence_to_string d.Icc.Controller.sequence)
    (String.concat "," d.Icc.Controller.predicted_from)
    d.Icc.Controller.evaluations
    (Engine.ir_digest c.Icc.Controller.program)

let test_controller_engine_agnostic () =
  let kb = Lazy.force small_kb in
  let modes =
    [ ("counters", fun engine ->
          Icc.Controller.one_shot_counters ?engine kb tiny_mem);
      ("counters with trials", fun engine ->
          Icc.Controller.one_shot_counters ?engine ~trials:3 kb tiny_mem);
      ("iterative", fun engine ->
          fst (Icc.Controller.iterative ?engine ~seed:3 ~budget:8 kb tiny_loop)) ]
  in
  List.iter
    (fun (mode, run) ->
      let direct = decision_text (run None) in
      List.iter
        (fun share ->
          let eng = Engine.create ~share Mach.Config.default in
          Alcotest.(check string)
            (Printf.sprintf "%s, share %b" mode share)
            direct
            (decision_text (run (Some eng))))
        [ true; false ])
    modes

(* a repeated decision on the same engine, on a fresh copy of the
   program, is served by the engine: its profile and trials from the
   result cache, its evaluated choice from the trie *)
let test_controller_reuses_engine () =
  let kb = Lazy.force small_kb in
  let flat_runs = Obs.Metrics.counter "sim.runs.flat" in
  let applied = Obs.Metrics.counter "passes.applied" in
  let eng = Engine.create Mach.Config.default in
  let work () =
    ( (Engine.stats eng).Engine.sims,
      Obs.Metrics.value flat_runs,
      Obs.Metrics.value applied )
  in
  let twice name decide =
    ignore (decide (compile tiny_mem_src));
    let sims, runs, passes = work () in
    ignore (decide (compile tiny_mem_src));
    let sims', runs', passes' = work () in
    Alcotest.(check int) (name ^ ": engine simulations") sims sims';
    Alcotest.(check int) (name ^ ": flat runs") runs runs';
    passes' - passes
  in
  ignore
    (twice "counters" (Icc.Controller.one_shot_counters ~engine:eng kb));
  Alcotest.(check int) "counters with trials: passes applied" 0
    (twice "counters with trials"
       (Icc.Controller.one_shot_counters ~engine:eng ~trials:3 kb));
  Alcotest.(check int) "iterative: passes applied" 0
    (twice "iterative" (fun p ->
         Icc.Controller.iterative ~engine:eng ~seed:3 ~budget:8 kb p))

(* an -O0 profile that traps raises the direct path's trap, also when
   the engine has cached the failure *)
let test_controller_profile_trap () =
  let kb = Lazy.force small_kb in
  Alcotest.(check bool) "the KB yields a counter model" true
    (Option.is_some
       (Icc.Pcmodel.train kb ~arch:Mach.Config.default.Mach.Config.name));
  let src = {|fn main() -> int { var z: int = 0; return 1 / z; }|} in
  let trap engine =
    match Icc.Controller.one_shot_counters ?engine kb (compile src) with
    | _ -> Alcotest.fail "the -O0 profile did not trap"
    | exception Mira.Interp.Trap msg -> msg
  in
  let direct = trap None in
  let eng = Some (Engine.create Mach.Config.default) in
  Alcotest.(check string) "first profile on an engine" direct (trap eng);
  Alcotest.(check string) "repeated profile on an engine" direct (trap eng);
  Alcotest.(check string) "repeated direct profile" direct (trap None)

(* ------------------------------------------------------------------ *)
(* tournament *)

let test_tournament_instances_symmetric () =
  let insts = Icc.Tournament.gen_instances ~seed:2 ~steps:2 ~pairs_per_step:4 tiny_loop in
  (* instances come in mirrored pairs with opposite labels *)
  Alcotest.(check bool) "even count" true (List.length insts mod 2 = 0);
  let ones = List.length (List.filter (fun i -> i.Icc.Tournament.label = 1) insts) in
  Alcotest.(check int) "half are wins" (List.length insts / 2) ones

let test_tournament_orders () =
  let insts =
    List.concat_map
      (fun (_, p) ->
        Icc.Tournament.gen_instances ~seed:4 ~steps:2 ~pairs_per_step:5 p)
      [ ("a", tiny_loop); ("b", tiny_mem) ]
  in
  match Icc.Tournament.train insts with
  | None -> Alcotest.fail "no tournament model"
  | Some model ->
    let seq = Icc.Tournament.order model ~steps:5 tiny_branchy in
    Alcotest.(check int) "produces a full ordering"
      (5 + List.length Icc.Tournament.completion)
      (List.length seq);
    Alcotest.(check bool) "ordering is valid" true
      (Passes.Pass.sequence_valid seq);
    (* applying the learned ordering preserves behaviour *)
    let before = Mira.Interp.observe tiny_branchy in
    let after =
      Mira.Interp.observe (Passes.Pass.apply_sequence seq tiny_branchy)
    in
    Alcotest.(check bool) "behaviour preserved" true
      (Mira.Interp.equal_observation before after)

(* ------------------------------------------------------------------ *)
(* trip-count features *)

let test_const_trip_counts () =
  let p =
    compile
      {|fn main() -> int {
          var s: int = 0;
          for i = 0 to 3 { s = s + i; }
          for j = 5 to 100 step 2 { s = s + j; }
          var n: int = s % 7;
          for k = 0 to n { s = s + k; }
          return s;
        }|}
  in
  let f = Mira.Ir.find_func p "main" in
  let trips = List.sort compare (Icc.Features.const_trip_counts f) in
  (* the variable-bound loop contributes nothing; 3 trips and 48 trips *)
  Alcotest.(check (list int)) "literal-bound trips" [ 3; 48 ] trips

let test_trip_features_distinguish () =
  let short =
    compile
      {|fn main() -> int {
          var s: int = 0;
          for it = 0 to 1000 { for j = 0 to 2 { s = s + j; } }
          return s;
        }|}
  in
  let long =
    compile
      {|fn main() -> int {
          var s: int = 0;
          for i = 0 to 512 { s = s + i; }
          return s;
        }|}
  in
  let f name p = List.assoc name (Icc.Features.extract p) in
  Alcotest.(check bool) "short-trip fraction separates programs" true
    (f "short_trip_frac" short > f "short_trip_frac" long);
  Alcotest.(check bool) "avg trip separates programs" true
    (f "avg_const_trip" short < f "avg_const_trip" long)

(* ------------------------------------------------------------------ *)
(* per-function (method-specific) compilation *)

let hetero_prog =
  compile
    {|fn helper(k: int) -> int {
        var s: int = 0;
        for j = 0 to 2 { s = s + k * 3 + j; }
        return s & 1023;
      }
      fn kernel() -> int {
        var acc: int = 0;
        for i = 0 to 400 { acc = (acc + i * 5) & 65535; }
        return acc;
      }
      fn main() -> int {
        var t: int = 0;
        for it = 0 to 500 { t = (t + helper(it)) & 65535; }
        t = (t + kernel()) & 65535;
        return t;
      }|}

let test_apply_per_function_preserves () =
  let choice fname =
    if fname = "kernel" then
      Passes.Pass.[ Const_prop; Const_fold; Licm; Unroll4; Cse; Dce ]
    else Passes.Pass.[ Simplify_cfg; Peephole; Dce ]
  in
  let p' = Passes.Pass.apply_per_function choice hetero_prog in
  Alcotest.(check (list string)) "well-formed" [] (Mira.Ir.check_program p');
  Alcotest.(check bool) "behaviour preserved" true
    (Mira.Interp.equal_observation
       (Mira.Interp.observe hetero_prog)
       (Mira.Interp.observe p'))

let test_apply_to_function_is_local () =
  let p' =
    Passes.Pass.apply_to_function Passes.Pass.Unroll4
      (Passes.Pass.apply_to_function Passes.Pass.Const_prop hetero_prog "kernel")
      "kernel"
  in
  (* only kernel changed *)
  let same name =
    Mira.Ir.func_to_string (Mira.Ir.find_func hetero_prog name)
    = Mira.Ir.func_to_string (Mira.Ir.find_func p' name)
  in
  Alcotest.(check bool) "helper untouched" true (same "helper");
  Alcotest.(check bool) "main untouched" true (same "main");
  Alcotest.(check bool) "kernel changed" false (same "kernel")

let test_apply_to_function_rejects_global_passes () =
  (match Passes.Pass.apply_to_function Passes.Pass.Inline hetero_prog "main" with
   | _ -> Alcotest.fail "inline accepted per-function"
   | exception Invalid_argument _ -> ());
  match Passes.Pass.apply_to_function Passes.Pass.Pack hetero_prog "main" with
  | _ -> Alcotest.fail "pack accepted per-function"
  | exception Invalid_argument _ -> ()

let test_perfunc_pipeline () =
  let insts =
    Icc.Perfunc.gen_instances ~prog:"hetero" hetero_prog
  in
  Alcotest.(check bool) "some decision-relevant functions" true
    (List.length insts >= 1);
  match Icc.Perfunc.train insts with
  | None -> Alcotest.fail "no model"
  | Some model ->
    let p', choices = Icc.Perfunc.compile model hetero_prog in
    Alcotest.(check int) "choice per function" 3 (List.length choices);
    Alcotest.(check bool) "behaviour preserved" true
      (Mira.Interp.equal_observation
         (Mira.Interp.observe hetero_prog)
         (Mira.Interp.observe p'))

(* ------------------------------------------------------------------ *)
(* dynamic optimization *)

let test_dynamic_detects_phases_and_wins () =
  let intervals = Icc.Dynamic.phased_intervals ~phases:4 ~per_phase:6 () in
  let r = Icc.Dynamic.run Icc.Dynamic.default_config intervals in
  Alcotest.(check bool) "phase changes detected" true
    (r.Icc.Dynamic.phase_changes_detected >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "dynamic (%d) beats O0 (%d)" r.Icc.Dynamic.total_cycles
       r.Icc.Dynamic.o0_cycles)
    true
    (r.Icc.Dynamic.total_cycles < r.Icc.Dynamic.o0_cycles);
  Alcotest.(check bool) "oracle is a lower bound" true
    (r.Icc.Dynamic.oracle_cycles <= r.Icc.Dynamic.static_best_cycles);
  Alcotest.(check bool) "dynamic >= oracle" true
    (r.Icc.Dynamic.total_cycles >= r.Icc.Dynamic.oracle_cycles)

let test_dynamic_beats_static_on_phased () =
  let intervals = Icc.Dynamic.phased_intervals ~phases:6 ~per_phase:8 () in
  let r = Icc.Dynamic.run Icc.Dynamic.default_config intervals in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic (%d) <= static best %s (%d)"
       r.Icc.Dynamic.total_cycles r.Icc.Dynamic.static_best_name
       r.Icc.Dynamic.static_best_cycles)
    true
    (r.Icc.Dynamic.total_cycles < r.Icc.Dynamic.static_best_cycles)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "features",
      [
        t "names aligned" test_feature_names_aligned;
        t "values" test_feature_values;
        t "stable vector" test_feature_vector_stable;
      ] );
    ( "characterize",
      [
        t "fields" test_characterize_fields;
        t "kb contents" test_build_kb_contents;
        t "trap is infinite" test_eval_sequence_traps_are_infinite;
      ] );
    ( "pcmodel",
      [
        t "self consistent" test_pcmodel_self_consistent;
        t "prediction helps" test_pcmodel_prediction_beats_o0;
        t "candidates distinct" test_pcmodel_candidates_distinct;
      ] );
    ( "controller",
      [
        t "one shot" test_one_shot_behaviour_preserved;
        t "one shot counters" test_one_shot_counters_runs_profile;
        t "iterative" test_iterative_improves;
        t "same decision with or without an engine"
          test_controller_engine_agnostic;
        t "repeated decision reuses the engine" test_controller_reuses_engine;
        t "trapping profile raises on an engine" test_controller_profile_trap;
      ] );
    ( "tournament",
      [
        t "symmetric instances" test_tournament_instances_symmetric;
        t "orders passes" test_tournament_orders;
      ] );
    ( "trip-features",
      [
        t "const trip counts" test_const_trip_counts;
        t "distinguish programs" test_trip_features_distinguish;
      ] );
    ( "perfunc",
      [
        t "apply per function preserves" test_apply_per_function_preserves;
        t "apply to function is local" test_apply_to_function_is_local;
        t "rejects whole-program passes" test_apply_to_function_rejects_global_passes;
        t "end to end" test_perfunc_pipeline;
      ] );
    ( "dynamic",
      [
        t "phases and wins" test_dynamic_detects_phases_and_wins;
        t "beats static" test_dynamic_beats_static_on_phased;
      ] );
  ]

let () = Alcotest.run "icc" suite
