(* The performance-counter model (the paper's Sec. III-B example, after
   Cavazos et al. CGO'07): characterize an unseen program with ONE -O0
   profiling run, then predict good optimizations from programs with
   similar counter signatures — here for the memory-bound mcf analogue.

     dune exec examples/counter_model.exe *)

let () =
  let config = Mach.Config.default in
  let arch = config.Mach.Config.name in
  let target_name = "mcf_spars" in
  let target = Workloads.program (Workloads.by_name_exn target_name) in

  (* train on a slice of the suite (leave-one-out); it must contain at
     least one memory-bound program for the counter signature to have a
     useful neighbour *)
  let training =
    [ "spmv"; "stencil2d"; "strsearch"; "histogram"; "crc32"; "dijkstra";
      "adpcm"; "jacobi" ]
    |> List.map (fun n -> (n, Workloads.program (Workloads.by_name_exn n)))
  in
  Fmt.pr "building knowledge base (%d programs)...@." (List.length training);
  let kb =
    Icc.Characterize.build_kb ~engine:(Engine.create config) ~per_program:25
      training
  in

  (* one profiling run of the new program *)
  let profile = Mach.Sim.run ~config target in
  let counters = Icc.Characterize.counter_assoc profile.Mach.Sim.counters in
  Fmt.pr "@.%s -O0 characterization (events per instruction):@." target_name;
  List.iter
    (fun name ->
      Fmt.pr "  %-8s %.5f@." name (List.assoc name counters))
    [ "L1_TCM"; "L2_TCM"; "L2_STM"; "BR_MSP"; "LD_INS"; "SR_INS" ];

  match Icc.Pcmodel.train kb ~arch with
  | None -> Fmt.epr "knowledge base too small to train the PC model@."
  | Some model ->
    let nbs = Icc.Pcmodel.neighbors model counters in
    Fmt.pr "@.programs with the most similar counter signatures:@.";
    List.iteri
      (fun i (prog, _, d) ->
        if i < 3 then Fmt.pr "  %-10s (distance %.2f)@." prog d)
      nbs;

    let seq = Icc.Pcmodel.predict model counters in
    Fmt.pr "@.PCModel predicts: %s@." (Passes.Pass.sequence_to_string seq);

    let eval = Icc.Characterize.eval_sequence ~config target in
    let c0 = eval [] in
    let cfast = eval Passes.Pass.ofast in
    let cpred = eval seq in
    Fmt.pr "@.cycles at -O0    : %.0f@." c0;
    Fmt.pr "cycles at -Ofast : %.0f (speedup %.2fx)@." cfast (c0 /. cfast);
    Fmt.pr "cycles at PCModel: %.0f (speedup %.2fx)@." cpred (c0 /. cpred);

    (* the paper also lets the model spend a few online trials *)
    let seq3, c3 = Icc.Pcmodel.predict_and_pick model ~trials:3 counters eval in
    Fmt.pr "PCModel top-3    : %.0f (speedup %.2fx) via %s@." c3 (c0 /. c3)
      (Passes.Pass.sequence_to_string seq3)
