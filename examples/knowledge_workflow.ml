(* The knowledge-base workflow (paper Sec. III-E): build it once, save it
   in the standard format, reload it in a later "session", query it, and
   let a new program benefit from everything the compiler has ever
   measured.

     dune exec examples/knowledge_workflow.exe *)

let () =
  let config = Mach.Config.default in
  let arch = config.Mach.Config.name in

  (* session 1: a training run populates the knowledge base *)
  let training =
    Workloads.all
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun w -> (w.Workloads.name, Workloads.program w))
  in
  Fmt.pr "session 1: exploring %d programs...@." (List.length training);
  let kb =
    Icc.Characterize.build_kb ~engine:(Engine.create config) ~per_program:15
      training
  in
  let path = Filename.temp_file "intelligent-compiler" ".kb" in
  Knowledge.Kb.save kb path;
  Fmt.pr "saved %d experiments + %d characterizations to %s@."
    (Knowledge.Kb.size kb)
    (List.length (Knowledge.Kb.programs kb))
    path;

  (* session 2: a fresh process reloads the knowledge *)
  let kb = Knowledge.Kb.load path in
  Fmt.pr "@.session 2: reloaded; programs known: %s@."
    (String.concat ", " (Knowledge.Kb.programs kb));

  (* what does the KB know about each program? *)
  List.iter
    (fun prog ->
      match Knowledge.Kb.best kb ~prog ~arch with
      | Some e ->
        Fmt.pr "  %-10s best %8d cycles via %s@." prog e.Knowledge.Kb.cycles
          (Passes.Pass.sequence_to_string e.Knowledge.Kb.seq)
      | None -> ())
    (Knowledge.Kb.programs kb);

  (* a new, unseen program asks the controller for a one-shot decision *)
  let newbie = Workloads.program (Workloads.by_name_exn "histogram") in
  let compiled = Icc.Controller.one_shot ~config kb newbie in
  let d = compiled.Icc.Controller.decision in
  Fmt.pr "@.new program 'histogram': predicted %s (based on %s), %d target \
          runs spent@."
    (Passes.Pass.sequence_to_string d.Icc.Controller.sequence)
    (String.concat ", " d.Icc.Controller.predicted_from)
    d.Icc.Controller.evaluations;
  let c0 = Icc.Characterize.eval_sequence ~config newbie [] in
  let c1 =
    Icc.Characterize.eval_sequence ~config newbie d.Icc.Controller.sequence
  in
  Fmt.pr "cycles %.0f -> %.0f (%.2fx) with zero measurements of the new \
          program@."
    c0 c1 (c0 /. c1);
  Sys.remove path
