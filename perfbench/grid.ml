(* grid: cross-architecture pricing on the trace engine.  Every suite
   program at O0, O2 and Ofast (54 variants) is priced on the three
   preset configs the way Engine.Grid.run_grid composes it: a trace
   fetched through Tcache over a Tstore, then a parallel replay.  The
   cold phase generates every trace and writes the store; the warm phase
   reopens the store under a fresh Tcache.  The suite's traces exceed the
   Tcache budget, so the warm phase is served from disk.  The inputs do
   not depend on the run seed: the order of the variants sets what the
   Tcache holds at any time, and so the process's memory peak, and the
   order of the configs sets how the three replays of a trace share two
   workers, so any reordering would change the work measured. *)

open Common
module Tstore = Engine.Tstore
module Tcache = Engine.Tcache

let setup_reps = 3
let setup_after = true
let rep_seconds = 9.5
let min_reps = 3

let configs =
  [| Mach.Config.amd_like; Mach.Config.c6713_like; Mach.Config.embedded |]

let levels =
  [ ("O0", []); ("O2", Passes.Pass.o2); ("Ofast", Passes.Pass.ofast) ]

let fuel = Mach.Sim.default_fuel

type setup = (string * Mira.Ir.program) array

(* the 54 variants *)
let setup (_ : ctx) : setup =
  Array.of_list
      (List.concat_map
         (fun w ->
           let p = compile_exn w.Workloads.source in
           List.map
             (fun (level, seq) ->
               (w.Workloads.name ^ "/" ^ level, Passes.Pass.apply_sequence seq p))
             levels)
         Workloads.all)

type phase = {
  results : Mach.Sim.result array array;
  slots : float array;  (* the store's open, then each variant's pricing *)
  fetch_ms : float;
  gen_ms : float;
  replay_ms : float;
  open_ms : float;
  words : int;
  store : Tstore.t;
  (* Tcache counters, read at the end of the phase: the cache itself
     holds up to its budget of traces and is dropped with the phase *)
  tc_hits : int;
  tc_misses : int;
  tc_evictions : int;
  tc_resident_words : int;
}

(* [before] runs first, timed in the open's slot *)
let phase ?(before = ignore) ctx (vs : setup) dir =
  settle ();
  let (store, open_s), first_s =
    timed (fun () ->
        before ();
        timed (fun () ->
            Obs.Trace.with_span ~cat:"tstore" "bench.tstore_open" (fun () ->
                Tstore.open_dir dir)))
  in
  let tcache = Tcache.create ~store () in
  let fetch = ref 0.0 and gen = ref 0.0 and replay = ref 0.0 in
  let words = ref 0 in
  let price p =
    let ir_digest =
      Obs.Trace.with_span ~cat:"engine" "bench.digest" (fun () ->
          Engine.Pctrie.digest p)
    in
    let tr, fs =
      timed (fun () ->
          Obs.Trace.with_span ~cat:"tstore" "bench.find_or_generate" (fun () ->
              Tcache.find_or_generate tcache ~ir_digest ~fuel (fun () ->
                  let tr, gs =
                    timed (fun () -> Mach.Mtrace.generate_program ~fuel p)
                  in
                  gen := !gen +. gs;
                  tr)))
    in
    fetch := !fetch +. fs;
    words := !words + tr.Mach.Mtrace.n;
    let rs, rs_s =
      timed (fun () ->
          Obs.Trace.with_span ~cat:"grid" "bench.replay_grid" (fun () ->
              Engine.Grid.replay_grid ~jobs:ctx.workers ~configs tr))
    in
    replay := !replay +. rs_s;
    rs
  in
  let priced = Array.map (fun (_, p) -> timed (fun () -> price p)) vs in
  { results = Array.map fst priced;
    slots = Array.append [| first_s |] (Array.map snd priced);
    fetch_ms = !fetch *. 1e3; gen_ms = !gen *. 1e3;
    replay_ms = !replay *. 1e3; open_ms = open_s *. 1e3; words = !words;
    store; tc_hits = Tcache.hits tcache; tc_misses = Tcache.misses tcache;
    tc_evictions = Tcache.evictions tcache;
    tc_resident_words = Tcache.resident_words tcache }

(* bit-identity of two results, as bench arch checks it *)
let same (a : Mach.Sim.result) (b : Mach.Sim.result) =
  Stdlib.compare
    Mach.Sim.(a.cycles, a.counters, a.ret, a.output, a.steps)
    Mach.Sim.(b.cycles, b.counters, b.ret, b.output, b.steps)
  = 0

let results_digest rs =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Array.map
             (Array.map (fun r ->
                  Mach.Sim.(r.cycles, r.counters, r.output, r.steps)))
             rs)
          []))

let rep = ref 0

let region ctx (vs : setup) : run =
  incr rep;
  let dir = fresh_dir ctx (Printf.sprintf "grid-tstore-%d" !rep) in
  let cold = phase ctx vs dir in
  let store_bytes = Tstore.bytes_on_disk cold.store in
  let payload = Tstore.payload_bytes cold.store in
  let warm =
    phase ctx vs dir ~before:(fun () ->
        Obs.Trace.with_span ~cat:"tstore" "bench.tstore_close" (fun () ->
            Tstore.close cold.store))
  in
  Tstore.close warm.store;
  remove_tree dir;
  let check () =
    (* every priced result against a plain flat run of its config *)
    let bad = ref 0 in
    Array.iteri
      (fun i (_, p) ->
        Array.iteri
          (fun j config ->
            let r = Mach.Sim.run ~engine:Mach.Sim.Flat ~config ~fuel p in
            if not (same r cold.results.(i).(j)) then incr bad;
            if not (same r warm.results.(i).(j)) then incr bad)
          configs)
      vs;
    !bad
  in
  let ops = Array.length vs * Array.length configs in
  let bytes_per_word = float_of_int payload /. float_of_int (max 1 cold.words) in
  let tc f = float_of_int (f cold + f warm) in
  let layer_counts (_ : Fold.t) =
    [ ("tstore.open_ms", warm.open_ms);
      ("tstore.write_ms", cold.fetch_ms -. cold.gen_ms);
      ("tstore.read_ms", warm.fetch_ms);
      ("tstore.hits", float_of_int (Tstore.hits warm.store));
      ("tstore.misses", float_of_int (Tstore.misses cold.store));
      ("tstore.log_bytes", float_of_int store_bytes);
      ("tstore.bytes_per_word", bytes_per_word);
      ("tstore.quarantined", float_of_int (Tstore.quarantined warm.store));
      ("tcache.hits", tc (fun p -> p.tc_hits));
      ("tcache.misses", tc (fun p -> p.tc_misses));
      ("tcache.evictions", tc (fun p -> p.tc_evictions));
      ("tcache.resident_words", float_of_int cold.tc_resident_words) ]
  in
  {
    stats =
      {
        cold_ops = ops;
        cold = [ cold.slots ];
        warm_ops = ops;
        warm = [ warm.slots ];
        attempted = 2 * ops;
        det =
          [ ("variants", Int (Array.length vs));
            ("trace_words", Int cold.words);
            ("store_bytes", Int store_bytes);
            ("payload_bytes", Int payload);
            ("bytes_per_word", Num bytes_per_word);
            ("tcache_misses", Int cold.tc_misses);
            ("tcache_evictions", Int cold.tc_evictions);
            ("warm_store_hits", Int (Tstore.hits warm.store));
            ("results_digest", Str (results_digest cold.results)) ];
        extra =
          [ ("cold_gen_ms", Num cold.gen_ms);
            ("cold_fetch_ms", Num cold.fetch_ms);
            ("cold_replay_ms", Num cold.replay_ms);
            ("warm_fetch_ms", Num warm.fetch_ms);
            ("warm_replay_ms", Num warm.replay_ms);
            ("tstore_open_ms", Num warm.open_ms) ];
        lost = 0;
      };
    layer_counts;
    check;
  }
