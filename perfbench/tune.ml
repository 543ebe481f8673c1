(* tune: the paper's workflow on unseen programs.  Each suite program is
   held out of the knowledge base in turn, compiled fresh from source,
   and tuned by the three controller modes, each decision followed by
   compiling and simulating the chosen sequence.  The cold phase gives
   every decision a fresh in-memory engine; the warm phase repeats each
   decision on its engine, so the focused search's evaluations are cache
   hits and what remains is the controller's own work.  The run
   seed shuffles the order of the programs, so every seed does the same
   work; the search seed is apart. *)

open Common
module Kb = Knowledge.Kb
module Controller = Icc.Controller

let setup_reps = 1
let setup_after = false
let rep_seconds = 15.0
let min_reps = 2

(* random sequences per program in the KB: bench caches 60, but the build
   is this workload's set-up, made before every repetition, and at 20 it
   takes ~11 s on a 2-core host against ~17 s *)
let per_program = 20
let budget = 10
let arch = config.Mach.Config.name

type mode = Oneshot | Pcmodel | Iterative

let modes = [ Oneshot; Pcmodel; Iterative ]

let mode_name = function
  | Oneshot -> "oneshot"
  | Pcmodel -> "pcmodel"
  | Iterative -> "iterative"

type setup = {
  kb : Kb.t;  (* the full suite KB, after a save/load round trip *)
  o0 : (string * Mira.Ir.program) list;
  build : Engine.stats;
  io_ms : float;
  round_trip : bool;
}

let setup ctx =
  let o0 =
    List.map
      (fun w -> (w.Workloads.name, compile_exn w.Workloads.source))
      Workloads.all
  in
  let eng = Engine.create ~jobs:ctx.workers config in
  let kb =
    Icc.Characterize.build_kb ~engine:eng ~seed:ctx.kb_seed ~per_program o0
  in
  let path = Filename.concat ctx.work "suite.kb" in
  let loaded, io_s =
    timed (fun () ->
        Kb.save kb path;
        Kb.load path)
  in
  { kb = loaded; o0; build = Engine.stats eng; io_ms = io_s *. 1e3;
    round_trip = Kb.to_string loaded = Kb.to_string kb }

type decision = {
  prog : string;
  mode : mode;
  seq : Passes.Pass.t list;
  program : Mira.Ir.program;
  cycles : int option;  (* None: the tuned program trapped *)
  ms : float;  (* controller call plus compile and simulate *)
}

let decide ctx s eng (prog, src) mode =
  let kb =
    Obs.Trace.with_span ~cat:"knowledge" "bench.without_program" (fun () ->
        Kb.without_program s.kb ~prog)
  in
  let p =
    Obs.Trace.with_span ~cat:"frontend" "bench.compile_source" (fun () ->
        compile_exn src)
  in
  let t0 = Unix.gettimeofday () in
  let c =
    match mode with
    | Oneshot ->
      Obs.Trace.with_span ~cat:"controller" "bench.one_shot" (fun () ->
          Controller.one_shot ~config kb p)
    | Pcmodel ->
      Obs.Trace.with_span ~cat:"controller" "bench.one_shot_counters" (fun () ->
          Controller.one_shot_counters ~engine:eng kb p)
    | Iterative ->
      Obs.Trace.with_span ~cat:"controller" "bench.iterative" (fun () ->
          fst (Controller.iterative ~engine:eng ~seed:ctx.search_seed ~budget kb p))
  in
  let cycles =
    Obs.Trace.with_span ~cat:"flatsim" "bench.simulate" (fun () ->
        match Mach.Sim.run ~config c.Controller.program with
        | r -> Some r.Mach.Sim.cycles
        | exception (Mira.Interp.Trap _ | Mira.Interp.Out_of_fuel) -> None)
  in
  { prog; mode; seq = c.Controller.decision.Controller.sequence;
    program = c.Controller.program; cycles;
    ms = (Unix.gettimeofday () -. t0) *. 1e3 }

(* in (program, mode) order, whatever order the decisions ran in *)
let digest_decisions ds =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.sort compare
             (List.map
                (fun d ->
                  String.concat "|"
                    [ d.prog; mode_name d.mode;
                      Passes.Pass.sequence_to_string d.seq ])
                ds))))

let o0_cycles s prog =
  match Kb.characterization s.kb ~prog ~arch with
  | Some c -> float_of_int c.Kb.o0_cycles
  | None -> nan

(* Fig. 2b's metric: the share of the best known length-5 improvement
   the search reached; the best known comes from the full KB *)
let pct_best s d =
  let o0 = o0_cycles s d.prog in
  let got = match d.cycles with Some c -> float_of_int c | None -> infinity in
  let known =
    match
      Kb.top_experiments s.kb ~prog:d.prog ~arch ~k:1
        ~length:Search.Space.default_length ()
    with
    | e :: _ -> float_of_int e.Kb.cycles
    | [] -> infinity
  in
  let best = Float.min known got in
  if o0 <= best then 100.0 else 100.0 *. (o0 -. got) /. (o0 -. best)

(* After the traced region: time, with tracing off, the public calls the
   controller makes that carry no span of their own, on the same
   inputs, to split each controller span's self time by layer. *)
type split = { extract : float; nearest1 : float; nearest5 : float;
               fit : float; train : float }

let measure_split s =
  let params = Search.Focused.default_params in
  let ms f = snd (timed f) *. 1e3 in
  List.fold_left
    (fun acc (prog, p) ->
      let kb = Kb.without_program s.kb ~prog in
      let feats = ref [] in
      let extract =
        ms (fun () ->
            feats := Icc.Features.restrict_to_similarity (Icc.Features.extract p))
      in
      let target_features = !feats in
      let nearest n () =
        ignore (Search.Focused.nearest_programs kb ~arch ~target_features ~n)
      in
      { extract = acc.extract +. extract;
        nearest1 = acc.nearest1 +. ms (nearest 1);
        nearest5 = acc.nearest5 +. ms (nearest params.Search.Focused.neighbors);
        fit =
          acc.fit
          +. ms (fun () ->
                 ignore
                   (Search.Focused.fit_model kb ~arch ~params ~target_features));
        train = acc.train +. ms (fun () -> ignore (Icc.Pcmodel.train kb ~arch)) })
    { extract = 0.0; nearest1 = 0.0; nearest5 = 0.0; fit = 0.0; train = 0.0 }
    s.o0

(* How often one decision makes each of those calls.  Nothing counts
   them, as no span or counter marks them in the libraries: the numbers
   are read off Icc.Controller as it stands, so the split built on them
   is derived, and the record says so.  iterative calls nearest_programs
   twice: once inside fit_model, once for the decision's provenance. *)
let calls_per_decision =
  [ ("one_shot.extract", 1); ("one_shot.nearest_programs", 1);
    ("one_shot_counters.pcmodel_train", 1); ("iterative.extract", 1);
    ("iterative.fit_model", 1); ("iterative.nearest_programs", 2) ]

(* parts measured in isolation may exceed the span's self time a little;
   scale them down so the split never exceeds what it splits *)
let share self parts =
  let total = List.fold_left ( +. ) 0.0 parts in
  let k = if total > self && total > 0.0 then self /. total else 1.0 in
  List.map (fun x -> x *. k) parts

let region ctx s : run =
  let n = List.length Workloads.all in
  let order = Array.of_list Workloads.all in
  shuffle (Random.State.make [| ctx.seed |]) order;
  let applied0 = counter "passes.applied" in
  (* one fresh in-memory engine per decision of the cold phase, reused
     by the same decision in the warm phase *)
  let engines =
    Array.init (List.length modes * n) (fun _ ->
        Engine.create ~jobs:ctx.workers config)
  in
  (* every decision as a thunk on its own engine *)
  let decisions =
    List.concat
      (List.mapi
         (fun m mode ->
           List.mapi
             (fun i w () ->
               decide ctx s engines.((m * n) + i)
                 (w.Workloads.name, w.Workloads.source)
                 mode)
             (Array.to_list order))
         modes)
  in
  (* each decision cold, then at once warm on the same engine, and once
     more warm after all of them: the warm phase is cheap, and its
     samples spread over the region instead of bunching at its end.  Each
     decision's seconds are a slot of its phase *)
  let unzip ts = (List.map fst ts, Array.of_list (List.map snd ts)) in
  settle ();
  let both =
    List.map
      (fun d ->
        let c = timed d in
        (c, timed d))
      decisions
  in
  let cold, cold_slots = unzip (List.map fst both) in
  let warm, warm_slots = unzip (List.map snd both) in
  settle ();
  let rewarm, rewarm_slots = unzip (List.map timed decisions) in
  let applied = counter "passes.applied" - applied0 in
  let of_mode m ds = List.filter (fun d -> d.mode = m) ds in
  let p50 m = median (List.map (fun d -> d.ms) (of_mode m cold)) in
  let speedup m =
    geomean
      (List.filter_map
         (fun d ->
           Option.map (fun c -> o0_cycles s d.prog /. float_of_int c) d.cycles)
         (of_mode m cold))
  in
  (* summed in program order, so that the seed's order of the decisions
     cannot move its last bits *)
  let pct =
    mean
      (List.map (pct_best s)
         (List.sort (fun a b -> compare a.prog b.prog) (of_mode Iterative cold)))
  in
  let sum f = Array.fold_left (fun a e -> a + f e) 0 engines in
  let stat f = sum (fun e -> f (Engine.stats e)) in
  let trie f =
    sum (fun e -> match Engine.trie e with Some t -> f t | None -> 0)
  in
  let sims = stat (fun s -> s.Engine.sims) in
  let dedup = stat (fun s -> s.Engine.dedup_hits) in
  let trapped = stat (fun s -> s.Engine.failures) in
  let th = trie Engine.Pctrie.hits and tm = trie Engine.Pctrie.misses in
  let lost =
    sum (fun e ->
        let h = Engine.health e in
        h.Engine.poisoned + h.Engine.timeouts)
  in
  let check () =
    (* every tuned program behaves as its -O0 build under the reference
       interpreter; the warm decisions repeat the cold ones exactly; the
       KB survived its save/load round trip *)
    let o0_obs =
      List.map (fun (prog, p) -> (prog, Mira.Interp.observe p)) s.o0
    in
    let seen = Hashtbl.create 64 in
    let bad =
      List.length
        (List.filter
           (fun d ->
             let key = d.prog ^ "|" ^ Engine.ir_digest d.program in
             let ok =
               match Hashtbl.find_opt seen key with
               | Some ok -> ok
               | None ->
                 let ok =
                   Mira.Interp.equal_observation
                     (List.assoc d.prog o0_obs)
                     (Mira.Interp.observe d.program)
                 in
                 Hashtbl.replace seen key ok;
                 ok
             in
             not ok)
           cold)
    in
    bad
    + List.length
        (List.filter
           (fun ds -> digest_decisions ds <> digest_decisions cold)
           [ warm; rewarm ])
    + if s.round_trip then 0 else 1
  in
  let layer_counts (f : Fold.t) =
    let sp = measure_split s in
    (* a call's summed per-program time, over both phases *)
    let total call x =
      2.0 *. float_of_int (List.assoc call calls_per_decision) *. x
    in
    let self name = (Fold.span f name).Fold.self_ms in
    let os = self "bench.one_shot" and it = self "bench.iterative" in
    let os_parts =
      share os
        [ total "one_shot.extract" sp.extract;
          total "one_shot.nearest_programs" sp.nearest1 ]
    in
    let it_parts =
      share it
        [ total "iterative.extract" sp.extract;
          total "iterative.nearest_programs" sp.nearest5 ]
    in
    let sum = List.fold_left ( +. ) 0.0 in
    let nth = List.nth in
    [ ("features.self_ms", nth os_parts 0 +. nth it_parts 0);
      ("knowledge.records",
       float_of_int (List.length s.kb.Kb.chars + Kb.size s.kb));
      ("knowledge.io_ms", s.io_ms);
      ("knowledge.self_ms",
       Fold.layer_ms f "knowledge" +. nth os_parts 1 +. nth it_parts 1);
      ("controller.oneshot_self_ms", os -. sum os_parts);
      ("controller.pcmodel_self_ms", self "bench.one_shot_counters");
      ("controller.iterative_self_ms", it -. sum it_parts);
      ("controller.fit_model_ms", total "iterative.fit_model" sp.fit);
      ("controller.pcmodel_train_ms",
       total "one_shot_counters.pcmodel_train" sp.train);
      ("engine.evals", float_of_int (stat (fun s -> s.Engine.evals)));
      ("engine.hits", float_of_int (stat (fun s -> s.Engine.hits)));
      ("engine.sims", float_of_int sims);
      ("engine.dedup_hits", float_of_int dedup);
      ("engine.trapped", float_of_int trapped);
      ("pctrie.hits", float_of_int th);
      ("pctrie.misses", float_of_int tm);
      ("pctrie.evictions", float_of_int (trie Engine.Pctrie.evictions)) ]
  in
  let trapped_decisions =
    List.length (List.filter (fun d -> d.cycles = None) cold)
  in
  {
    stats =
      {
        cold_ops = List.length cold;
        cold = [ cold_slots ];
        warm_ops = List.length warm;
        warm = [ warm_slots; rewarm_slots ];
        attempted = List.length cold + List.length warm + List.length rewarm;
        det =
          [ ("kb_evals", Int s.build.Engine.evals);
            ("kb_sims", Int s.build.Engine.sims);
            ("kb_dedup_hits", Int s.build.Engine.dedup_hits);
            ("kb_digest",
             Str (Digest.to_hex (Digest.string (Kb.to_string s.kb))));
            ("sims", Int sims);
            ("dedup_hits", Int dedup);
            ("trie_hits", Int th);
            ("trie_misses", Int tm);
            ("passes_applied", Int applied);
            ("trapped", Int trapped);
            ("trapped_decisions", Int trapped_decisions);
            ("chosen_digest", Str (digest_decisions cold));
            ("speedup_oneshot", Num (speedup Oneshot));
            ("speedup_pcmodel", Num (speedup Pcmodel));
            ("speedup_iterative", Num (speedup Iterative));
            ("pct_best_iterative", Num pct) ];
        extra =
          [ ("oneshot_ms_p50", Num (p50 Oneshot));
            ("pcmodel_ms_p50", Num (p50 Pcmodel));
            ("iterative_ms_p50", Num (p50 Iterative));
            ("median_n", Int n);
            ("kb_io_ms", Num s.io_ms);
            ( "split_calls_per_decision",
              Str
                (String.concat ", "
                   (List.map
                      (fun (call, k) -> Printf.sprintf "%s %d" call k)
                      calls_per_decision)
                ^ " (read off Icc.Controller, not counted)") ) ];
        lost;
      };
    layer_counts;
    check;
  }
