(* Figure 2 of the paper: the optimization-sequence space of adpcm on the
   TI-C6713-like machine, and focused vs random iterative search.

   Fig 2(a): sequences within 5% of the best, projected onto the
   (length-2 prefix, length-3 suffix) plane — the paper's point is that
   near-optimal points are scattered all over the space, and that a model
   trained on *other* programs predicts a region containing the optimum.

   Fig 2(b): best-performance-so-far vs number of evaluations, RANDOM
   (averaged over trials) vs FOCUSSED (model-guided); the paper reports
   38% vs 86% of the available improvement after 10 evaluations, with
   random needing >80 evaluations to match. *)

let target_name = "adpcm"

let config = Mach.Config.c6713_like

let sample_count () = match !Util.scale with Util.Fast -> 1200 | Util.Full -> 6000

let budget () = match !Util.scale with Util.Fast -> 60 | Util.Full -> 100

let random_trials () = match !Util.scale with Util.Fast -> 10 | Util.Full -> 20

(* The model trained with adpcm held out (the honest protocol). *)
let loo_model kb =
  let kb = Knowledge.Kb.without_program kb ~prog:target_name in
  let target = Workloads.program (Workloads.by_name_exn target_name) in
  let feats =
    Icc.Features.restrict_to_similarity (Icc.Features.extract target)
  in
  Search.Focused.fit_model kb ~arch:config.Mach.Config.name
    ~params:Search.Focused.default_params ~target_features:feats

let fig2a () =
  Util.header
    "Fig 2(a): near-optimal points in the adpcm optimization space (c6713)";
  let kb = Util.kb_for config in
  let eng = Util.engine_for config in
  let target = Workloads.program (Workloads.by_name_exn target_name) in
  let o0 = (Engine.eval eng target []).Engine.cost in
  let n = sample_count () in
  Fmt.pr "sampling %d distinct length-5 sequences (space size %d)...@." n
    (Search.Space.cardinality ());
  let rng = Random.State.make [| 20080101 |] in
  let seqs = Search.Space.sample_distinct rng n in
  (* the sweep runs in journaled chunks (each chunk one engine batch:
     parallel across the pool when -j is set, free on a warm cache); a
     killed run resumes from the last completed chunk *)
  let costs = Util.sweep_costs eng ~id:"fig2a" target seqs in
  let scored = List.mapi (fun i s -> (s, costs.(i))) seqs in
  let best_cost = List.fold_left (fun a (_, c) -> min a c) infinity scored in
  let good = List.filter (fun (_, c) -> c <= 1.05 *. best_cost) scored in
  let best_seq, _ =
    List.find (fun (_, c) -> c = best_cost) scored
  in
  Fmt.pr "O0 = %.0f cycles; best sampled = %.0f (%.1f%% better)@." o0 best_cost
    (100.0 *. (o0 -. best_cost) /. o0);
  Fmt.pr "best sequence: %s@." (Passes.Pass.sequence_to_string best_seq);
  Fmt.pr "points within 5%% of optimum: %d of %d sampled (%.2f%%)@."
    (List.length good) n
    (100.0 *. float_of_int (List.length good) /. float_of_int n);

  (* scatter: how spread are the good points over the projection plane? *)
  let npass = Passes.Pass.count in
  let prefix_cells = Hashtbl.create 64 and suffix_cells = Hashtbl.create 64 in
  List.iter
    (fun (s, _) ->
      Hashtbl.replace prefix_cells (Search.Space.prefix2_index s) ();
      Hashtbl.replace suffix_cells (Search.Space.suffix3_index s) ())
    good;
  Fmt.pr
    "scatter: good points occupy %d distinct prefix-2 cells (of %d) and %d \
     distinct suffix-3 cells@."
    (Hashtbl.length prefix_cells) (npass * npass)
    (Hashtbl.length suffix_cells);

  (* coarse density plot over (first pass, second pass) of the prefix *)
  Util.subheader "density of <=5% points by (pass1, pass2) prefix";
  let grid = Array.make_matrix npass npass 0 in
  List.iter
    (fun (s, _) ->
      match s with
      | a :: b :: _ ->
        let i = Passes.Pass.to_index a and j = Passes.Pass.to_index b in
        grid.(i).(j) <- grid.(i).(j) + 1
      | _ -> ())
    good;
  Fmt.pr "        %s@."
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%4s" (String.sub (Passes.Pass.name p) 0 (min 4 (String.length (Passes.Pass.name p))))) Passes.Pass.all));
  List.iteri
    (fun i p ->
      Fmt.pr "%-8s" (Passes.Pass.name p);
      Array.iter
        (fun c -> Fmt.pr "%4s " (if c = 0 then "." else string_of_int c))
        grid.(i);
      Fmt.pr "@.")
    Passes.Pass.all;

  (* the model's predicted region: top-K sequences by model probability,
     K = number of good points; does it capture the optimum (the paper's
     contour does)? *)
  Util.subheader "model-predicted region (trained without adpcm)";
  let model = loo_model kb in
  let with_lp =
    List.map (fun (s, c) -> (s, c, Search.Seqmodel.log_prob model s)) scored
  in
  let sorted_by_lp =
    List.sort (fun (_, _, a) (_, _, b) -> compare b a) with_lp
  in
  let k = max (List.length good) (n / 20) in
  let region = List.filteri (fun i _ -> i < k) sorted_by_lp in
  let region_good =
    List.length (List.filter (fun (_, c, _) -> c <= 1.05 *. best_cost) region)
  in
  let optimum_in_region =
    List.exists (fun (s, _, _) -> s = best_seq) region
  in
  let base_rate = float_of_int (List.length good) /. float_of_int n in
  let region_rate = float_of_int region_good /. float_of_int k in
  Fmt.pr "region = top %d sequences by model probability (%.1f%% of samples)@."
    k (100.0 *. float_of_int k /. float_of_int n);
  Fmt.pr "good-point density: %.2f%% inside region vs %.2f%% overall (%.1fx \
          enrichment)@."
    (100.0 *. region_rate) (100.0 *. base_rate)
    (region_rate /. max 1e-9 base_rate);
  Fmt.pr "optimal sequence inside predicted region: %b  (paper: the contours \
          contain the optimum)@."
    optimum_in_region

let fig2b () =
  Util.header
    "Fig 2(b): focused vs random search on adpcm (c6713), % of max improvement";
  let kb = Util.kb_for config in
  let eng = Util.engine_for config in
  let target = Workloads.program (Workloads.by_name_exn target_name) in
  let eval = Engine.evaluator eng target in
  let o0 = eval [] in
  let budget = budget () in
  (* RANDOM, averaged over trials (paper: average of 20 trials).  The
     schedule of every trial is known up front (random_averaged uses
     seeds seed + 1000t), so one engine batch prewarms the cache and the
     averaged walk below runs entirely on hits. *)
  let trials = random_trials () in
  Fmt.pr "random search: %d trials x %d evaluations...@." trials budget;
  ignore
    (Engine.costs eng target
       (List.concat_map
          (fun t ->
            Array.to_list
              (Search.Strategies.random_plan ~seed:(101 + (1000 * t)) ~budget
                 ()))
          (List.init trials Fun.id)));
  let rand_curve =
    Search.Strategies.random_averaged ~seed:101 ~budget ~trials eval
  in
  (* FOCUSSED: Markov model, leave-one-out trained; averaged over the same
     number of trials for fairness *)
  Fmt.pr "focused search: %d trials x %d evaluations...@." trials budget;
  let model = loo_model kb in
  let foc_acc = Array.make budget 0.0 in
  for t = 0 to trials - 1 do
    let r = Search.Focused.search ~seed:(500 + t) ~budget model eval in
    Array.iteri
      (fun i c -> foc_acc.(i) <- foc_acc.(i) +. c)
      r.Search.Strategies.history
  done;
  let foc_curve = Array.map (fun v -> v /. float_of_int trials) foc_acc in
  (* 100% = the best LENGTH-5 sequence known for adpcm: the searched
     space's own optimum (the long fixed pipelines in the KB are not
     reachable by either search and would deflate both curves) *)
  let kb_best =
    match
      Knowledge.Kb.top_experiments kb ~prog:target_name
        ~arch:config.Mach.Config.name ~k:1 ~length:Search.Space.default_length
        ()
    with
    | e :: _ -> float_of_int e.Knowledge.Kb.cycles
    | [] -> infinity
  in
  let best =
    min kb_best
      (min (Array.fold_left min infinity rand_curve)
         (Array.fold_left min infinity foc_curve))
  in
  let pct c = 100.0 *. (o0 -. c) /. (o0 -. best) in
  Fmt.pr "O0 = %.0f cycles, best known = %.0f (max improvement %.1f%%)@." o0
    best
    (100.0 *. (o0 -. best) /. o0);
  let marks =
    List.filter (fun i -> i <= budget) [ 1; 2; 5; 10; 20; 50; 80; 100 ]
  in
  Util.print_table
    [ "evaluations"; "RANDOM %"; "FOCUSSED %" ]
    (List.map
       (fun i ->
         [
           string_of_int i;
           Util.pct (pct rand_curve.(i - 1));
           Util.pct (pct foc_curve.(i - 1));
         ])
       marks);
  let r10 = pct rand_curve.(min budget 10 - 1) in
  let f10 = pct foc_curve.(min budget 10 - 1) in
  let rand_catchup =
    let target = foc_curve.(min budget 10 - 1) in
    let rec find i =
      if i >= budget then Printf.sprintf ">%d" budget
      else if rand_curve.(i) <= target then string_of_int (i + 1)
      else find (i + 1)
    in
    find 0
  in
  Fmt.pr
    "@.headline: at 10 evaluations random achieves %.0f%%, focused %.0f%% of \
     the available improvement@."
    r10 f10;
  Fmt.pr "random search needs %s evaluations to match focused@10  (paper: \
          38%% vs 86%%, >80 evals)@."
    rand_catchup

let run () =
  fig2a ();
  fig2b ()
