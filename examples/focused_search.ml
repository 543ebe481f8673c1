(* Focused iterative search (the paper's Sec. III-A example): build a
   knowledge base from a few training workloads, fit a sequence model for
   an unseen program, and compare model-focused search with random search
   under the same evaluation budget.

     dune exec examples/focused_search.exe

   This is a scaled-down version of the Fig. 2(b) experiment in
   bench/main.exe (which uses the full suite and averages more trials). *)

let () =
  let config = Mach.Config.default in
  let arch = config.Mach.Config.name in
  let engine = Engine.create config in

  (* leave one program out as the "new, unseen" program *)
  let target_name = "histogram" in
  let target = Workloads.program (Workloads.by_name_exn target_name) in
  let training =
    Workloads.all
    |> List.filter (fun w -> w.Workloads.name <> target_name)
    |> List.filteri (fun i _ -> i < 6)   (* a small KB is enough for a demo *)
    |> List.map (fun w -> (w.Workloads.name, Workloads.program w))
  in

  Fmt.pr "building knowledge base from %d programs...@." (List.length training);
  let kb = Icc.Characterize.build_kb ~engine ~per_program:25 training in
  Fmt.pr "knowledge base: %d experiments@." (Knowledge.Kb.size kb);

  let eval = Icc.Characterize.eval_sequence ~config target in
  let o0 = eval [] in

  (* which training programs look like the target? *)
  let feats = Icc.Features.restrict_to_similarity (Icc.Features.extract target) in
  let neighbours =
    Search.Focused.nearest_programs kb ~arch ~target_features:feats ~n:3
  in
  Fmt.pr "programs most similar to %s: %s@." target_name
    (String.concat ", " neighbours);

  (* focused search with a 10-evaluation budget *)
  let model =
    Search.Focused.fit_model kb ~arch
      ~params:Search.Focused.default_params ~target_features:feats
  in
  let budget = 10 in
  let focused = Search.Focused.search ~seed:1 ~budget model eval in

  (* random search, same budget, averaged over 5 seeds *)
  let random =
    Search.Strategies.random_averaged ~seed:1 ~budget ~trials:5 eval
  in

  Fmt.pr "@.%s on %s: O0 = %.0f cycles@." arch target_name o0;
  Fmt.pr "evals | random (avg) | focused@.";
  List.iter
    (fun i ->
      Fmt.pr "%5d | %12.0f | %7.0f@." (i + 1) random.(i)
        focused.Search.Strategies.history.(i))
    [ 0; 1; 4; 9 ];
  Fmt.pr "focused best sequence: %s (speedup %.2fx over O0)@."
    (Passes.Pass.sequence_to_string focused.Search.Strategies.best_seq)
    (o0 /. focused.Search.Strategies.best_cost);

  (* the controller wraps all of this behind one call *)
  let compiled, _ = Icc.Controller.iterative ~engine ~budget:10 kb target in
  Fmt.pr "controller chose: %s@."
    (Passes.Pass.sequence_to_string
       compiled.Icc.Controller.decision.Icc.Controller.sequence)
