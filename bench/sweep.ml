(* The fig2-slice sweep benchmark: the engine's prefix-sharing trie and
   simulation-dedup layer against the no-share baseline, on the sweep
   that dominates every experiment's cost (adpcm under a batch of
   distinct length-5 sequences on the c6713-like machine, exactly
   fig2a's sampling).

   Three timed runs, each through Strategies.exhaustive_batched (the
   sweep path search uses), each on a fresh in-memory cache so "cold"
   means cold:
     1. cold, sharing off  — every miss compiles and simulates alone
     2. cold, sharing on   — shared prefixes compiled once, converging
                             sequences simulated once
     3. warm, sharing on   — the same batch again on the same engine
   A differential oracle checks the cost vectors bit-identical between
   (1) and (2) before any speedup is reported; a mismatch is a
   correctness bug and fails the run.

   With --json the numbers land in BENCH_sweep.json (baseline checked
   in; CI regenerates and uploads one per run). *)

let target_name = "adpcm"
let config = Mach.Config.c6713_like

let sample_count () =
  match !Util.scale with Util.Fast -> 400 | Util.Full -> 1600

let json_file = "BENCH_sweep.json"

type run = { wall : float; sims : int; best : float }

let timed_sweep eng target seqs =
  let t0 = Unix.gettimeofday () in
  let r = Search.Strategies.exhaustive_batched seqs (Engine.costs eng target) in
  let wall = Unix.gettimeofday () -. t0 in
  ( { wall; sims = (Engine.stats eng).Engine.sims;
      best = r.Search.Strategies.best_cost },
    r.Search.Strategies.history )

let write_json ~n ~cold_off ~cold_on ~warm ~identical eng_on =
  let s = Engine.stats eng_on in
  let th, tm, te =
    match Engine.trie eng_on with
    | Some trie ->
      Engine.Pctrie.(hits trie, misses trie, evictions trie)
    | None -> (0, 0, 0)
  in
  let open Obs.Json in
  Util.write_report json_file
    (Obj
       [
         ("schema", Str "icc-bench-sweep/1");
         ("target", Str target_name);
         ("arch", Str config.Mach.Config.name);
         ("jobs", int !Util.jobs);
         ("sequences", int n);
         ("cold_no_share_s", fixed 3 cold_off.wall);
         ("cold_share_s", fixed 3 cold_on.wall);
         ("warm_share_s", fixed 3 warm.wall);
         ("speedup_cold", fixed 2 (cold_off.wall /. cold_on.wall));
         ("speedup_warm", fixed 2 (cold_off.wall /. warm.wall));
         ("identical", Bool identical);
         ("sims_no_share", int cold_off.sims);
         ("sims_share", int cold_on.sims);
         ("dedup_hits", int s.Engine.dedup_hits);
         ("trie_hits", int th);
         ("trie_misses", int tm);
         ("trie_evictions", int te);
       ])

let run () =
  Util.header
    "Sweep benchmark: prefix sharing + simulation dedup vs no-share";
  let target = Workloads.program (Workloads.by_name_exn target_name) in
  let n = sample_count () in
  let rng = Random.State.make [| 20080101 |] in
  let seqs = Search.Space.sample_distinct rng n in
  Fmt.pr "%d distinct length-5 sequences on %s (%s), %d jobs@." n
    target_name config.Mach.Config.name !Util.jobs;
  (* fresh in-memory caches: cold means cold, and nothing persists *)
  let eng_off = Engine.create ~jobs:!Util.jobs ~share:false config in
  let eng_on = Engine.create ~jobs:!Util.jobs ~share:true config in
  let cold_off, hist_off = timed_sweep eng_off target seqs in
  let cold_on, hist_on = timed_sweep eng_on target seqs in
  (* the differential oracle: sharing must change the work, never the
     numbers — bit-identical cost vectors or the benchmark fails *)
  let identical = hist_off = hist_on && cold_off.best = cold_on.best in
  if not identical then begin
    Fmt.epr
      "sweep: MISMATCH between no-share and share runs (best %.0f vs \
       %.0f) — sharing changed an outcome@."
      cold_off.best cold_on.best;
    exit 1
  end;
  let warm_before = (Engine.stats eng_on).Engine.sims in
  let warm, _ = timed_sweep eng_on target seqs in
  let warm = { warm with sims = warm.sims - warm_before } in
  let speedup a b = Printf.sprintf "%.2fx" (a.wall /. b.wall) in
  Util.print_table
    [ "mode"; "wall"; "simulations"; "speedup" ]
    [
      [ "cold, no sharing"; Printf.sprintf "%.3fs" cold_off.wall;
        string_of_int cold_off.sims; "1.00x" ];
      [ "cold, sharing"; Printf.sprintf "%.3fs" cold_on.wall;
        string_of_int cold_on.sims; speedup cold_off cold_on ];
      [ "warm, sharing"; Printf.sprintf "%.3fs" warm.wall;
        string_of_int warm.sims; speedup cold_off warm ];
    ];
  let s = Engine.stats eng_on in
  (match Engine.trie eng_on with
   | Some trie ->
     Fmt.pr
       "outcomes bit-identical; dedup hits %d, trie hits %d / misses %d \
        / evictions %d@."
       s.Engine.dedup_hits (Engine.Pctrie.hits trie)
       (Engine.Pctrie.misses trie)
       (Engine.Pctrie.evictions trie)
   | None -> ());
  if !Util.json_out then write_json ~n ~cold_off ~cold_on ~warm ~identical eng_on;
  Engine.Rcache.close (Engine.cache eng_off);
  Engine.Rcache.close (Engine.cache eng_on)
