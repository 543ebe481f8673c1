(* Run rollups.  See rollup.mli; the module is pure presentation: the
   caller (Engine.Dist's coordinator, or miracc sweep-status scanning a
   run directory cold) supplies the facts, this module merges the
   per-process metrics exports and renders one rollup.json document. *)

type shard = {
  shard : int;
  worker : string;
  chunks_total : int;
  chunks_done : int;
  torn : int;
  secs : float;
}

type input = {
  run : string;
  job : string;
  n : int;
  chunk_size : int;
  elapsed_s : float;
  workers_seen : int;
  shards_served : int;
  steals : int;
  requeues : int;
  worker_deaths : int;
  respawns : int;
  serial_fallbacks : int;
  absorbed : int;
  absorb_duplicates : int;
  absorb_rejected : int;
  shards : shard list;
  metrics_docs : string list;
}

(* the value of counter [name] among merged metric records *)
let counter_value records name =
  List.find_map
    (fun r ->
      match Json.(mem "type" r, mem "name" r, mem "value" r) with
      | Some (Json.Str "counter"), Some (Json.Str n), Some v when n = name ->
        Some (Json.to_int v)
      | _ -> None)
    records
  |> Option.value ~default:0

let to_json (i : input) =
  let records = Metrics.merge_records i.metrics_docs in
  let cnt = counter_value records in
  let cache_hits = cnt "engine.cache.hits" in
  let cache_misses = cnt "engine.cache.misses" in
  let dedup_hits = cnt "engine.dedup_hits" in
  let evals = cnt "engine.evals" in
  let rate num den =
    Json.num (if den > 0 then float_of_int num /. float_of_int den else 0.0)
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 i.shards in
  let total = sum (fun s -> s.chunks_total) in
  let done_ = sum (fun s -> s.chunks_done) in
  let shard (s : shard) =
    let sps =
      if s.secs > 0.0 then float_of_int (s.chunks_done * i.chunk_size) /. s.secs
      else 0.0
    in
    Json.(
      Obj
        [ ("shard", int s.shard); ("worker", Str s.worker);
          ("chunks_total", int s.chunks_total);
          ("chunks_done", int s.chunks_done); ("torn", int s.torn);
          ("secs", num s.secs); ("throughput_sps", num sps) ])
  in
  Json.(
    to_doc
      (Obj
         [
           ("schema", Str "icc-rollup/1");
           ("run", Str i.run);
           ("job", Str i.job);
           ("n", int i.n);
           ("chunk_size", int i.chunk_size);
           ("elapsed_s", num i.elapsed_s);
           ( "chunks",
             Obj
               [ ("total", int total); ("done", int done_);
                 ("torn", int (sum (fun s -> s.torn))) ] );
           ("complete", Bool (total > 0 && done_ = total));
           ( "coordinator",
             Obj
               [
                 ("workers_seen", int i.workers_seen);
                 ("shards_served", int i.shards_served);
                 ("steals", int i.steals);
                 ("requeues", int i.requeues);
                 ("worker_deaths", int i.worker_deaths);
                 ("respawns", int i.respawns);
                 ("serial_fallbacks", int i.serial_fallbacks);
                 ("absorbed", int i.absorbed);
                 ("absorb_duplicates", int i.absorb_duplicates);
                 ("absorb_rejected", int i.absorb_rejected);
               ] );
           ( "cache",
             Obj
               [ ("hits", int cache_hits); ("misses", int cache_misses);
                 ("rate", rate cache_hits (cache_hits + cache_misses)) ] );
           ( "dedup",
             Obj
               [ ("hits", int dedup_hits); ("evals", int evals);
                 ("rate", rate dedup_hits evals) ] );
           ("shards", List (List.map shard i.shards));
           ("metrics", List records);
         ]))

let write ~path i = Json.write_file path (to_json i)
