(* Distributed sweep orchestration:
   - Shard.plan covers the range exactly, balanced, clamped;
   - sweep_local is bit-identical to computing the costs serially, over
     fuzzed sweep shapes (n, workers, shards, chunk size) and over real
     engines on fuzzed programs;
   - a worker killed mid-shard (injected _exit after the first
     journaled chunk) is detected, its shard re-queued, a respawned
     worker resumes it from the journal, and the costs still match;
   - a skewed shard keeps one worker busy while the others drain its
     queue by stealing;
   - a worker with mismatched sweep inputs is rejected, not served;
   - Rcache.absorb merges disjoint/overlapping/corrupt donors with
     exact accounting, refuses live donors, survives reopen;
   - Journal.describe reports progress and discards are counted. *)

module Dist = Engine.Dist
module Shard = Engine.Shard
module Faults = Engine.Faults
module Journal = Engine.Journal
module Rcache = Engine.Rcache

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let with_tmp_dir prefix f =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let check_float_array label a b =
  Alcotest.(check int) (label ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (x = b.(i) || (Float.is_nan x && Float.is_nan b.(i))) then
        Alcotest.failf "%s: cost %d differs (%h vs %h)" label i x b.(i))
    a

(* a deterministic stand-in for "evaluate items lo..hi-1" *)
let fake_cost i =
  if i mod 11 = 4 then infinity else float_of_int (i * i mod 251) /. 3.0

let fake_eval lo hi = Array.init (hi - lo) (fun k -> fake_cost (lo + k))

(* ------------------------------------------------------------------ *)
(* Shard.plan *)

let test_shard_plan () =
  (* exact cover, in order, balanced to within one item *)
  List.iter
    (fun (n, shards) ->
      let plan = Shard.plan ~n ~shards in
      let label = Printf.sprintf "n=%d shards=%d" n shards in
      Alcotest.(check bool)
        (label ^ ": clamped") true
        (Array.length plan <= max 1 n && Array.length plan <= shards);
      let expect = ref 0 in
      Array.iteri
        (fun i s ->
          Alcotest.(check int) (label ^ ": id") i s.Shard.id;
          Alcotest.(check int) (label ^ ": contiguous") !expect s.Shard.lo;
          Alcotest.(check bool) (label ^ ": non-empty") true
            (s.Shard.hi > s.Shard.lo);
          expect := s.Shard.hi)
        plan;
      if n > 0 then Alcotest.(check int) (label ^ ": covers") n !expect;
      if Array.length plan > 0 then begin
        let sizes =
          Array.map (fun s -> s.Shard.hi - s.Shard.lo) plan |> Array.to_list
        in
        let mn = List.fold_left min max_int sizes in
        let mx = List.fold_left max 0 sizes in
        Alcotest.(check bool) (label ^ ": balanced") true (mx - mn <= 1)
      end)
    [ (0, 4); (1, 4); (7, 3); (12, 4); (13, 4); (100, 7); (5, 100) ];
  Alcotest.check_raises "negative n" (Invalid_argument
    "Shard.plan: n must be >= 0") (fun () -> ignore (Shard.plan ~n:(-1) ~shards:2));
  Alcotest.check_raises "zero shards" (Invalid_argument
    "Shard.plan: shards must be > 0") (fun () -> ignore (Shard.plan ~n:4 ~shards:0));
  (* the journal key binds the shard's identity *)
  let s0 = { Shard.id = 0; lo = 0; hi = 5 } in
  let s1 = { Shard.id = 1; lo = 0; hi = 5 } in
  Alcotest.(check bool) "key binds job" true
    (Shard.key ~job:"a" s0 <> Shard.key ~job:"b" s0);
  Alcotest.(check bool) "key binds shard id" true
    (Shard.key ~job:"a" s0 <> Shard.key ~job:"a" s1)

(* ------------------------------------------------------------------ *)
(* sweep_local ≡ serial, fuzzed shapes *)

let sweep ~dir ?max_respawns ?cache ~workers ~shards ~chunk_size ~n
    ?(eval = fake_eval) () =
  Dist.sweep_local ~workers ~dir ?max_respawns ?cache
    {
      Dist.job = Printf.sprintf "job-%d-%d-%d" n chunk_size shards;
      n;
      chunk_size;
      shards;
    }
    ~make_eval:(fun ~worker_dir:_ -> eval)

let test_local_matches_serial_fuzzed () =
  let rng = Random.State.make [| 20260808 |] in
  for case = 0 to 7 do
    let n = 1 + Random.State.int rng 40 in
    let workers = 1 + Random.State.int rng 4 in
    let shards = 1 + Random.State.int rng 10 in
    let chunk_size = 1 + Random.State.int rng 5 in
    with_tmp_dir "dist-fuzz" @@ fun dir ->
    let stats, costs = sweep ~dir ~workers ~shards ~chunk_size ~n () in
    let label =
      Printf.sprintf "case %d (n=%d w=%d s=%d c=%d)" case n workers shards
        chunk_size
    in
    check_float_array label (fake_eval 0 n) costs;
    Alcotest.(check int)
      (label ^ ": every shard served once")
      (Array.length (Shard.plan ~n ~shards))
      stats.Dist.shards_served;
    Alcotest.(check bool)
      (label ^ ": manifest written")
      true
      (Sys.file_exists (Filename.concat dir "manifest.json"))
  done

let test_manifest_contents () =
  with_tmp_dir "dist-manifest" @@ fun dir ->
  let _ = sweep ~dir ~workers:2 ~shards:4 ~chunk_size:3 ~n:10 () in
  let ic = open_in (Filename.concat dir "manifest.json") in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "manifest mentions %s" needle)
        true
        (let nl = String.length needle and cl = String.length content in
         let rec at i =
           i + nl <= cl && (String.sub content i nl = needle || at (i + 1))
         in
         at 0))
    [
      "icc-dist-manifest/1"; "git_rev"; "git_dirty"; "job-10-3-4";
      "shard_map"; "journal_key"; "\"shards\": 4"; "\"chunk_size\": 3";
    ]

(* a torn manifest never reads as a smaller run: every prefix of a real
   manifest that loses content is refused whole *)
let test_torn_manifest_refused () =
  with_tmp_dir "dist-torn-manifest" @@ fun dir ->
  let _ = sweep ~dir ~workers:2 ~shards:8 ~chunk_size:5 ~n:40 () in
  let path = Filename.concat dir "manifest.json" in
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let shards () =
    Option.map (fun i -> List.length i.Obs.Rollup.shards) (Dist.survey ~dir)
  in
  Alcotest.(check (option int)) "intact manifest: all 8 shards" (Some 8)
    (shards ());
  close_out (open_out_bin path);
  for k = 0 to String.length text - 1 do
    let prefix = String.sub text 0 k in
    (* growing the file in place, without truncating it each time,
       keeps the loop fast on disks that discard freed blocks *)
    let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
    output_string oc prefix;
    close_out oc;
    if String.trim prefix <> String.trim text then
      match shards () with
      | None -> ()
      | Some n ->
        Alcotest.failf "manifest cut at byte %d read as a run of %d shards" k n
  done

(* ------------------------------------------------------------------ *)
(* worker killed mid-shard: requeue, respawn, journal resume *)

let test_worker_killed_resumes_from_journal () =
  with_tmp_dir "dist-kill" @@ fun dir ->
  let stats, costs =
    Faults.with_plan (Faults.parse_exn "dist-worker-exit@0") (fun () ->
        sweep ~dir ~max_respawns:4 ~workers:2 ~shards:4 ~chunk_size:2 ~n:12
          ())
  in
  check_float_array "killed+resumed = serial" (fake_eval 0 12) costs;
  Alcotest.(check bool) "a worker died" true (stats.Dist.worker_deaths >= 1);
  Alcotest.(check bool) "its shard was re-queued" true
    (stats.Dist.requeues >= 1);
  Alcotest.(check bool) "a worker was respawned" true
    (stats.Dist.respawns >= 1);
  Alcotest.(check bool) "no serial fallback needed" true
    (stats.Dist.serial_fallbacks = 0);
  (* the injected death landed after the first journaled chunk, so some
     worker directory holds a complete journal for shard 0 that was
     started by the victim and finished by the resumer *)
  let complete = ref false in
  Array.iter
    (fun w ->
      let path =
        Filename.concat
          (Filename.concat (Filename.concat dir "workers") w)
          "shard-0.journal"
      in
      match Journal.describe ~path with
      | Some d when d.Journal.done_chunks = d.Journal.total -> complete := true
      | _ -> ())
    (Sys.readdir (Filename.concat dir "workers"));
  Alcotest.(check bool) "shard 0 journal completed" true !complete

(* ------------------------------------------------------------------ *)
(* run telemetry under fire: a sweep that loses a worker still yields a
   mergeable trace and a rollup whose chunk counts reconcile with the
   journals on disk *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_killed_sweep_telemetry () =
  with_tmp_dir "dist-telemetry" @@ fun dir ->
  let trace_path = Filename.concat dir "trace.json" in
  let oc = open_out trace_path in
  Obs.Trace.enable_stream oc;
  Obs.Trace.set_pid (Unix.getpid ());
  let stats, costs =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.finish ();
        Obs.Trace.disable ();
        close_out_noerr oc)
      (fun () ->
        Faults.with_plan (Faults.parse_exn "dist-worker-exit@0") (fun () ->
            sweep ~dir ~max_respawns:4 ~workers:2 ~shards:4 ~chunk_size:2
              ~n:12 ()))
  in
  check_float_array "telemetry run = serial" (fake_eval 0 12) costs;
  Alcotest.(check bool) "a worker died" true (stats.Dist.worker_deaths >= 1);
  Alcotest.(check bool) "a run id was minted" true (stats.Dist.run_id <> "");
  (* the coordinator's final rollup reconciles with the journals: for
     each shard, progress is the best journal any worker holds for it *)
  let rollup = Obs.Json.parse (read_file (Filename.concat dir "rollup.json")) in
  let jnum key =
    match Obs.Json.(mem key (field "chunks" rollup)) with
    | Some v -> Obs.Json.to_int v
    | None -> Alcotest.failf "rollup.json lacks %S" key
  in
  let by_shard = Hashtbl.create 8 in
  Array.iter
    (fun w ->
      let wdir = Filename.concat (Filename.concat dir "workers") w in
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".journal" then
            match Journal.describe ~path:(Filename.concat wdir f) with
            | Some d ->
              let prev =
                match Hashtbl.find_opt by_shard f with
                | Some (dn, _) -> dn
                | None -> 0
              in
              if d.Journal.done_chunks >= prev then
                Hashtbl.replace by_shard f
                  (d.Journal.done_chunks, d.Journal.total)
            | None -> ())
        (Sys.readdir wdir))
    (Sys.readdir (Filename.concat dir "workers"));
  let journal_done =
    Hashtbl.fold (fun _ (dn, _) acc -> acc + dn) by_shard 0
  in
  let journal_total =
    Hashtbl.fold (fun _ (_, t) acc -> acc + t) by_shard 0
  in
  Alcotest.(check int) "rollup done = journals' best" journal_done
    (jnum "done");
  Alcotest.(check int) "rollup total = journals'" journal_total
    (jnum "total");
  Alcotest.(check bool) "run completed in the rollup" true
    (jnum "done" = jnum "total");
  (match Obs.Json.mem "run" rollup with
   | Some (Obs.Json.Str r) ->
     Alcotest.(check string) "rollup carries the run id"
                 stats.Dist.run_id r
   | _ -> Alcotest.fail "rollup.json lacks the run id");
  (* the cold survey agrees with the file the coordinator wrote *)
  (match Dist.survey ~dir with
   | Some input ->
     let sdone =
       List.fold_left
         (fun acc (s : Obs.Rollup.shard) -> acc + s.Obs.Rollup.chunks_done)
         0 input.Obs.Rollup.shards
     in
     Alcotest.(check int) "survey done = rollup done" (jnum "done") sdone;
     Alcotest.(check string) "survey run id" stats.Dist.run_id
       input.Obs.Rollup.run
   | None -> Alcotest.fail "survey found no manifest");
  (* the scattered trace files — including the dead worker's, truncated
     by its _exit — merge into one loadable, correlated trace *)
  let sources = Dist.trace_sources ~dir in
  Alcotest.(check bool) "coordinator + both workers left traces" true
    (List.length sources >= 3);
  let merged_path = Filename.concat dir "trace-merged.json" in
  let moc = open_out merged_path in
  let mst =
    Fun.protect
      ~finally:(fun () -> close_out_noerr moc)
      (fun () -> Obs.Merge.merge_files sources moc)
  in
  Alcotest.(check bool) "merge agreed on a run id" true
    (mst.Obs.Merge.run = Some stats.Dist.run_id);
  Alcotest.(check (list string)) "no source disagreed" []
    mst.Obs.Merge.mismatched;
  Alcotest.(check bool) "events survived the merge" true
    (mst.Obs.Merge.events > 0);
  let merged = read_file merged_path in
  Alcotest.(check bool) "merged trace is a closed array" true
    (String.length merged > 2
    && merged.[0] = '['
    && String.sub merged (String.length merged - 2) 2 = "]\n");
  (* span nesting per pid never goes negative: no orphan span ends, even
     with the victim's truncated file in the mix *)
  let depth = Hashtbl.create 4 in
  fst (Obs.Json.parse_trace merged)
  |> List.iter (fun ev ->
         match Obs.Json.(mem "ph" ev, mem "pid" ev) with
         | Some (Obs.Json.Str ph), Some pid ->
           let pid = Obs.Json.to_int pid in
           let d =
             match Hashtbl.find_opt depth pid with
             | Some r -> r
             | None ->
               let r = ref 0 in
               Hashtbl.replace depth pid r;
               r
           in
           if ph = "B" then incr d
           else if ph = "E" then begin
             decr d;
             if !d < 0 then
               Alcotest.failf "orphan span end for pid %d" pid
           end
         | _ -> ());
  Alcotest.(check bool) "multiple pids in the merged trace" true
    (Hashtbl.length depth >= 3)

(* ------------------------------------------------------------------ *)
(* skewed shards: stealing keeps the fleet busy *)

let test_steal_heavy_skew () =
  with_tmp_dir "dist-steal" @@ fun dir ->
  let slow_eval lo hi =
    if lo = 0 then Unix.sleepf 0.4;
    fake_eval lo hi
  in
  let stats, costs =
    sweep ~dir ~workers:2 ~shards:8 ~chunk_size:2 ~n:16 ~eval:slow_eval ()
  in
  check_float_array "skewed = serial" (fake_eval 0 16) costs;
  Alcotest.(check int) "all shards served" 8 stats.Dist.shards_served;
  Alcotest.(check bool) "work was stolen" true (stats.Dist.steals >= 1);
  Alcotest.(check int) "no deaths in a clean run" 0 stats.Dist.worker_deaths

(* ------------------------------------------------------------------ *)
(* serve/work protocol: rejection of mismatched sweep inputs *)

let test_mismatched_worker_rejected () =
  with_tmp_dir "dist-reject" @@ fun dir ->
  let socket = Filename.concat dir "sock" in
  let spec = { Dist.job = "right"; n = 6; chunk_size = 2; shards = 2 } in
  let fork_worker spec' code_ok =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      let wdir = Filename.concat dir (Printf.sprintf "w-%s" spec'.Dist.job) in
      let code =
        try
          ignore (Dist.work ~socket ~dir:wdir spec' ~eval:fake_eval ());
          code_ok
        with Dist.Dist_error _ -> 7
      in
      Unix._exit code
    | pid -> pid
  in
  let wrong = fork_worker { spec with Dist.job = "wrong" } 0 in
  let right = fork_worker spec 0 in
  let _, costs = Dist.serve ~socket ~dir ~workers:2 spec in
  check_float_array "served costs" (fake_eval 0 6) costs;
  let status pid = snd (Unix.waitpid [] pid) in
  Alcotest.(check bool) "mismatched worker saw Dist_error" true
    (status wrong = Unix.WEXITED 7);
  Alcotest.(check bool) "matching worker finished cleanly" true
    (status right = Unix.WEXITED 0)

(* ------------------------------------------------------------------ *)
(* Rcache.absorb *)

let dg c = String.make 32 c

let measured seed =
  Rcache.Measured
    {
      ir_digest = dg 'a';
      cycles = 100 + seed;
      code_size = 1 + (seed mod 9);
      counters = [| seed; seed * 2 |];
    }

let build_cache dir entries =
  let c = Rcache.open_dir dir in
  List.iter (fun (k, e) -> Rcache.add c k e) entries;
  Rcache.close c

let test_absorb_fuzz () =
  let rng = Random.State.make [| 4242 |] in
  for case = 0 to 11 do
    with_tmp_dir "absorb-fuzz" @@ fun dir ->
    let primary_dir = Filename.concat dir "primary" in
    let donor_dir = Filename.concat dir "donor" in
    Sys.mkdir primary_dir 0o755;
    Sys.mkdir donor_dir 0o755;
    let key i = Printf.sprintf "k%d" i in
    let prim_n = Random.State.int rng 8 in
    let donor_n = 1 + Random.State.int rng 10 in
    let overlap = Random.State.int rng (1 + min prim_n donor_n) in
    (* primary: k0..k<prim_n>; donor: overlap keys + fresh keys, with
       donor values distinguishable from the primary's *)
    let prim_entries = List.init prim_n (fun i -> (key i, measured i)) in
    let donor_entries =
      List.init donor_n (fun j ->
          let i = if j < overlap then j else 1000 + j in
          (key i, measured (500 + i)))
    in
    build_cache primary_dir prim_entries;
    build_cache donor_dir donor_entries;
    (* corrupt lines appended to the donor must be rejected, not merged *)
    let corrupt = Random.State.int rng 3 in
    if corrupt > 0 then begin
      let oc =
        open_out_gen [ Open_append; Open_wronly ] 0o644
          (Filename.concat donor_dir "results.log")
      in
      for _ = 1 to corrupt do
        output_string oc "garbage line with no checksum\n"
      done;
      close_out oc
    end;
    let c = Rcache.open_dir primary_dir in
    let st = Rcache.absorb c donor_dir in
    let label = Printf.sprintf "case %d" case in
    Alcotest.(check int)
      (label ^ ": absorbed = donor-only keys")
      (donor_n - overlap) st.Rcache.absorbed;
    Alcotest.(check int)
      (label ^ ": duplicates = overlap") overlap st.Rcache.duplicates;
    Alcotest.(check int) (label ^ ": rejected = corrupt lines") corrupt
      st.Rcache.rejected;
    (* primary entries win on overlap; donor-only entries arrive *)
    List.iter
      (fun (k, e) ->
        Alcotest.(check bool) (label ^ ": primary kept " ^ k) true
          (Rcache.find c k = Some e))
      prim_entries;
    List.iter
      (fun (k, e) ->
        if not (List.mem_assoc k prim_entries) then
          Alcotest.(check bool) (label ^ ": donor added " ^ k) true
            (Rcache.find c k = Some e))
      donor_entries;
    Rcache.close c;
    (* the merge is durable and the log stays clean *)
    let c2 = Rcache.open_dir primary_dir in
    Alcotest.(check int) (label ^ ": reopen clean") 0 (Rcache.quarantined c2);
    Alcotest.(check int)
      (label ^ ": reopen complete")
      (prim_n + donor_n - overlap)
      (Rcache.known c2);
    Rcache.close c2
  done

let test_absorb_edge_cases () =
  with_tmp_dir "absorb-edge" @@ fun dir ->
  let primary_dir = Filename.concat dir "primary" in
  Sys.mkdir primary_dir 0o755;
  let c = Rcache.open_dir primary_dir in
  (* a missing donor is an empty merge, not an error *)
  let st = Rcache.absorb c (Filename.concat dir "nope") in
  Alcotest.(check int) "missing donor absorbs nothing" 0 st.Rcache.absorbed;
  (* a donor held by a live process is refused *)
  let live_dir = Filename.concat dir "live" in
  Sys.mkdir live_dir 0o755;
  build_cache live_dir [ ("k", measured 1) ];
  let oc = open_out (Filename.concat live_dir "cache.lock") in
  output_string oc "1";
  close_out oc;
  (match Rcache.absorb c live_dir with
   | exception Rcache.Cache_error _ -> ()
   | _ -> Alcotest.fail "live donor must raise Cache_error");
  (* an alien donor log is refused *)
  let alien_dir = Filename.concat dir "alien" in
  Sys.mkdir alien_dir 0o755;
  let oc = open_out (Filename.concat alien_dir "results.log") in
  output_string oc "my precious data\n";
  close_out oc;
  (match Rcache.absorb c alien_dir with
   | exception Rcache.Cache_error _ -> ()
   | _ -> Alcotest.fail "alien donor must raise Cache_error");
  Rcache.close c

let test_sweep_local_merges_worker_caches () =
  (* end to end with real engines: a distributed sweep over a fuzzed
     program matches Engine.costs serially, and the workers' caches are
     merged into the primary *)
  let target =
    match Testgen.Gen_program.compile 7003 with
    | Ok p -> p
    | Error e -> Alcotest.failf "testgen program: %s" e
  in
  let seqs =
    Search.Space.sample_distinct (Random.State.make [| 99 |]) 12
  in
  let seq_arr = Array.of_list seqs in
  let config = Mach.Config.default in
  with_tmp_dir "dist-engine" @@ fun dir ->
  let primary_dir = Filename.concat dir "primary-cache" in
  Sys.mkdir primary_dir 0o755;
  let primary = Rcache.open_dir primary_dir in
  let stats, costs =
    Dist.sweep_local ~workers:2 ~dir:(Filename.concat dir "run")
      ~cache:primary
      { Dist.job = "engine-fuzz"; n = 12; chunk_size = 3; shards = 4 }
      ~make_eval:(fun ~worker_dir ->
        let cache = Rcache.open_dir (Filename.concat worker_dir "cache") in
        let eng = Engine.create ~jobs:1 ~cache config in
        fun lo hi ->
          Engine.costs eng target
            (Array.to_list (Array.sub seq_arr lo (hi - lo))))
  in
  let eng = Engine.create ~jobs:1 config in
  let serial = Array.of_list (List.map (fun _ -> 0.0) seqs) in
  Array.blit (Engine.costs eng target seqs) 0 serial 0 12;
  check_float_array "distributed = serial engine" serial costs;
  Alcotest.(check bool) "worker cache entries merged" true
    (stats.Dist.absorbed > 0);
  Alcotest.(check bool) "merged entries resident" true
    (Rcache.known primary >= stats.Dist.absorbed);
  Rcache.close primary

(* ------------------------------------------------------------------ *)
(* Journal.describe + discard accounting *)

let test_journal_describe_and_discard () =
  with_tmp_dir "journal-desc" @@ fun dir ->
  let path = Filename.concat dir "sweep.log" in
  Alcotest.(check bool) "missing file: no description" true
    (Journal.describe ~path = None);
  let discarded = Obs.Metrics.counter "journal.discarded" in
  let before = Obs.Metrics.value discarded in
  ignore (Journal.run ~path ~key:"k" ~chunk_size:4 ~n:14 fake_eval);
  (match Journal.describe ~path with
   | Some d ->
     Alcotest.(check int) "all chunks done" 4 d.Journal.done_chunks;
     Alcotest.(check int) "total matches" 4 d.Journal.total
   | None -> Alcotest.fail "journal not describable");
  Alcotest.(check int) "no discard yet" before
    (Obs.Metrics.value discarded);
  (* a different key discards the journal — counted, and the journal
     describes the new sweep afterwards *)
  ignore (Journal.run ~path ~key:"other" ~chunk_size:7 ~n:14 fake_eval);
  Alcotest.(check int) "discard counted" (before + 1)
    (Obs.Metrics.value discarded);
  (match Journal.describe ~path with
   | Some d -> Alcotest.(check int) "new total" 2 d.Journal.total
   | None -> Alcotest.fail "journal not describable after rewrite");
  (* an alien file is not describable *)
  let alien = Filename.concat dir "alien" in
  let oc = open_out alien in
  output_string oc "hello\nworld\n";
  close_out oc;
  Alcotest.(check bool) "alien file: no description" true
    (Journal.describe ~path:alien = None)

let () =
  Random.self_init ();
  Alcotest.run "dist"
    [
      ( "shard",
        [
          Alcotest.test_case "plan covers, balanced, clamped" `Quick
            test_shard_plan;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "local = serial, fuzzed shapes" `Quick
            test_local_matches_serial_fuzzed;
          Alcotest.test_case "manifest contents" `Quick test_manifest_contents;
          Alcotest.test_case "torn manifest refused" `Quick
            test_torn_manifest_refused;
          Alcotest.test_case "killed worker resumes from journal" `Quick
            test_worker_killed_resumes_from_journal;
          Alcotest.test_case "killed sweep: mergeable trace + rollup" `Quick
            test_killed_sweep_telemetry;
          Alcotest.test_case "skewed shards are stolen" `Quick
            test_steal_heavy_skew;
          Alcotest.test_case "mismatched worker rejected" `Quick
            test_mismatched_worker_rejected;
          Alcotest.test_case "engines + cache merge, fuzzed program" `Quick
            test_sweep_local_merges_worker_caches;
        ] );
      ( "absorb",
        [
          Alcotest.test_case "disjoint/overlapping/corrupt donors" `Quick
            test_absorb_fuzz;
          Alcotest.test_case "edge cases" `Quick test_absorb_edge_cases;
        ] );
      ( "journal",
        [
          Alcotest.test_case "describe + discard accounting" `Quick
            test_journal_describe_and_discard;
        ] );
    ]
