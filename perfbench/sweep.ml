(* sweep: design-space exploration at batch throughput.  Fig. 2a's
   sampling (distinct length-5 sequences, from the sweep seed) on adpcm,
   whose cheap simulations leave the parent's compile-and-digest work a
   large share, and on mcf_spars, whose ~4x longer simulations load the
   workers.  The cold phase sends chunks through an engine over an empty
   on-disk result cache; the warm phase reopens that cache in a fresh
   engine and re-sends every chunk, all hits.  The run seed shuffles the
   sequences within each chunk.  A batch compiles its misses in sorted
   order and simulates each distinct program once whatever the order, so
   every seed does the same work, batch by batch; another sample is one
   --sweep-seed away. *)

open Common

let setup_reps = 20
let setup_after = true
let rep_seconds = 14.0
let min_reps = 2
let programs = [ "adpcm"; "mcf_spars" ]
let sample_size = 400
let chunk = 100
let warm_reps = 10

type setup = {
  progs : (string * Mira.Ir.program) list;
  seqs : Passes.Pass.t list array;
}

let setup ctx =
  let progs =
    List.map
      (fun name ->
        (name, compile_exn (Workloads.by_name_exn name).Workloads.source))
      programs
  in
  let rng = Random.State.make [| ctx.sweep_seed |] in
  let seqs = Array.of_list (Search.Space.sample_distinct rng sample_size) in
  let order = Random.State.make [| ctx.seed |] in
  let n = Array.length seqs in
  for i = 0 to (n - 1) / chunk do
    let c = Array.sub seqs (i * chunk) (min chunk (n - (i * chunk))) in
    shuffle order c;
    Array.blit c 0 seqs (i * chunk) (Array.length c)
  done;
  { progs; seqs }

let chunks s =
  let n = Array.length s.seqs in
  List.init ((n + chunk - 1) / chunk) (fun i ->
      Array.to_list (Array.sub s.seqs (i * chunk) (min chunk (n - (i * chunk)))))

(* every chunk of every program through [eng]: costs per program, and
   each chunk's seconds as a slot *)
let send eng s =
  let sent =
    List.map
      (fun (_, p) ->
        List.map
          (fun c ->
            timed (fun () ->
                Obs.Trace.with_span ~cat:"engine" "bench.costs" (fun () ->
                    Engine.costs eng p c)))
          (chunks s))
      s.progs
  in
  ( List.map (fun cs -> Array.concat (List.map fst cs)) sent,
    List.concat_map (List.map snd) sent )

let costs_digest costs =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.concat_map
             (fun a -> Array.to_list (Array.map (Printf.sprintf "%h") a))
             costs)))

let lost_of eng =
  let h = Engine.health eng in
  h.Engine.poisoned + h.Engine.timeouts

(* what one warm repetition leaves behind; its engine and cache are
   dropped with it *)
type warm = {
  costs : float array list;
  engine_stats : Engine.stats;
  engine_lost : int;
  open_ms : float;
  slots : float array;  (* close and reopen, then the chunks *)
}

let rep = ref 0

let region ctx s : run =
  incr rep;
  let dir = fresh_dir ctx (Printf.sprintf "sweep-rcache-%d" !rep) in
  let applied0 = counter "passes.applied" in
  (* slots: the open, then the chunks *)
  settle ();
  let (eng, cache), open_s =
    timed (fun () ->
        let cache =
          Obs.Trace.with_span ~cat:"rcache" "bench.rcache_open" (fun () ->
              Engine.Rcache.open_dir dir)
        in
        (Engine.create ~jobs:ctx.workers ~cache config, cache))
  in
  let cold, chunk_s = send eng s in
  let cold_slots = Array.of_list (open_s :: chunk_s) in
  let applied = counter "passes.applied" - applied0 in
  (* read the cold engine now, so that it and its trie are garbage
     before the warm phase *)
  let cs = Engine.stats eng and cold_lost = lost_of eng in
  let th, tm, te =
    match Engine.trie eng with
    | Some t -> Engine.Pctrie.(hits t, misses t, evictions t)
    | None -> (0, 0, 0)
  in
  (* the warm phase is short, so it runs [warm_reps] times, each closing
     the cache and reopening it in a fresh engine *)
  let warm_once cache =
    settle ();
    let (weng, wcache, open_s), reopen_s =
      timed (fun () ->
          Obs.Trace.with_span ~cat:"rcache" "bench.rcache_close" (fun () ->
              Engine.Rcache.close cache);
          let wcache, open_s =
            timed (fun () ->
                Obs.Trace.with_span ~cat:"rcache" "bench.rcache_open" (fun () ->
                    Engine.Rcache.open_dir dir))
          in
          (Engine.create ~jobs:ctx.workers ~cache:wcache config, wcache, open_s))
    in
    let costs, chunk_s = send weng s in
    ( { costs; engine_stats = Engine.stats weng; engine_lost = lost_of weng;
        open_ms = open_s *. 1e3; slots = Array.of_list (reopen_s :: chunk_s) },
      wcache )
  in
  let rec repeat k cache acc =
    if k = 0 then (cache, List.rev acc)
    else
      let w, wcache = warm_once cache in
      repeat (k - 1) wcache (w :: acc)
  in
  let wcache, warms = repeat warm_reps cache [] in
  let entries = Engine.Rcache.known wcache in
  let quarantined = Engine.Rcache.quarantined wcache in
  Engine.Rcache.close wcache;
  let log_bytes = file_size (Filename.concat dir "results.log") in
  remove_tree dir;
  let open_ms = median (List.map (fun w -> w.open_ms) warms) in
  let wsum f = List.fold_left (fun a w -> a + f w.engine_stats) 0 warms in
  let check () =
    (* a seeded sample of cold costs against the engine-free evaluator,
       and every warm cost against its cold one, bit for bit *)
    let differ a b = Int64.bits_of_float a <> Int64.bits_of_float b in
    let rng = Random.State.make [| ctx.sweep_seed; 7 |] in
    let n = Array.length s.seqs in
    let sampled =
      List.concat
        (List.map2
           (fun (_, p) costs ->
             List.init 16 (fun _ ->
                 let i = Random.State.int rng n in
                 differ costs.(i)
                   (Icc.Characterize.eval_sequence ~config p s.seqs.(i))))
           s.progs cold)
    in
    let warm_diffs w =
      List.fold_left2
        (fun acc c wc ->
          Array.fold_left ( + ) acc
            (Array.map2 (fun a b -> Bool.to_int (differ a b)) c wc))
        0 cold w.costs
    in
    List.length (List.filter Fun.id sampled)
    + List.fold_left (fun acc w -> acc + warm_diffs w) 0 warms
  in
  let ops = List.length s.progs * Array.length s.seqs in
  let layer_counts (_ : Fold.t) =
    let f = float_of_int in
    [ ("engine.evals", f (cs.Engine.evals + wsum (fun s -> s.Engine.evals)));
      ("engine.hits", f (cs.Engine.hits + wsum (fun s -> s.Engine.hits)));
      ("engine.sims", f (cs.Engine.sims + wsum (fun s -> s.Engine.sims)));
      ("engine.dedup_hits",
       f (cs.Engine.dedup_hits + wsum (fun s -> s.Engine.dedup_hits)));
      ("engine.trapped", f cs.Engine.failures);
      ("pctrie.hits", f th);
      ("pctrie.misses", f tm);
      ("pctrie.evictions", f te);
      ("rcache.open_ms", open_ms);
      ("rcache.entries", f entries);
      ("rcache.log_bytes", f log_bytes);
      ("rcache.quarantined", f quarantined) ]
  in
  {
    stats =
      {
        cold_ops = ops;
        cold = [ cold_slots ];
        warm_ops = ops;
        warm = List.map (fun w -> w.slots) warms;
        attempted = ops * (1 + warm_reps);
        det =
          [ ("sequences", Int (Array.length s.seqs));
            ("sims", Int cs.Engine.sims);
            ("dedup_hits", Int cs.Engine.dedup_hits);
            ("trie_hits", Int th);
            ("trie_misses", Int tm);
            ("trie_evictions", Int te);
            ("passes_applied", Int applied);
            ("trapped", Int cs.Engine.failures);
            ("warm_sims", Int (wsum (fun s -> s.Engine.sims)));
            ("rcache_entries", Int entries);
            ("rcache_log_bytes", Int log_bytes);
            ("costs_digest", Str (costs_digest cold)) ];
        extra = [ ("rcache_open_ms", Num open_ms) ];
        lost =
          List.fold_left (fun a w -> a + w.engine_lost) cold_lost warms;
      };
    layer_counts;
    check;
  }
