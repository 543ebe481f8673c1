(* Bounded in-memory store of generated event traces, keyed by
   (compiled-IR digest, fuel) — exactly what the config-independent
   event stream depends on; the machine config never enters the key,
   which is the whole point: one resident trace prices every config.

   Sits alongside the sim-dedup layer: Rcache's sim entries dedup
   *results* per (ir, config, fuel), this caches the *trace* so a new
   config against known code costs one model fold instead of a full
   semantic re-execution.

   Traces are big (one word per dynamic memory access and branch), so
   the budget is total retained words, not entry count.  Eviction is
   LRU via the same stamp-queue discipline Rcache uses: each touch
   pushes a (key, stamp) marker; stale markers (stamp no longer
   current) are skipped when the budget forces eviction. *)

module Mtrace = Mach.Mtrace

type slot = { tr : Mtrace.t; words : int; mutable stamp : int }

type t = {
  tbl : (string, slot) Hashtbl.t;
  order : (string * int) Queue.t;  (* touch markers, oldest first *)
  mutable clock : int;
  mutable resident_words : int;
  capacity_words : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable uncached : int;  (* traces generated but too big to retain *)
  store : Tstore.t option; (* durable tier: miss -> store -> generate *)
}

(* 8M words = 64 MiB on a 64-bit host: about half of the perfbench
   grid's 54 suite traces, which hold 16.1M stream words in all. *)
let default_capacity_words = 8 * 1024 * 1024

let m_hits = Obs.Metrics.counter "tcache.hits"
let m_misses = Obs.Metrics.counter "tcache.misses"
let m_evictions = Obs.Metrics.counter "tcache.evictions"

(* capacity-pressure signals: how full the budget is and how often it
   is blown entirely (hits/misses/evictions alone cannot distinguish a
   tight budget from cold traffic) *)
let g_resident_words = Obs.Metrics.gauge "tcache.resident_words"
let g_uncached = Obs.Metrics.gauge "tcache.uncached"

let create ?(capacity_words = default_capacity_words) ?store () =
  {
    tbl = Hashtbl.create 64;
    order = Queue.create ();
    clock = 0;
    resident_words = 0;
    capacity_words = max 1 capacity_words;
    hits = 0;
    misses = 0;
    evictions = 0;
    uncached = 0;
    store;
  }

let key ~ir_digest ~fuel = ir_digest ^ "\x00" ^ string_of_int fuel

(* Retained footprint of a trace, in words: what the trace holds, as a
   finished trace's arrays are exact-length.  The record, its output,
   the stream, about four words per signature (the row pointer, the
   uses array and dst) and three per run; a stopped trace holds only
   the record and its output. *)
let words_of (tr : Mtrace.t) =
  16
  + (String.length tr.Mtrace.output / 8)
  + tr.Mtrace.n
  + (4 * Array.length tr.Mtrace.sig_dst)
  + (3 * Array.length tr.Mtrace.run_first)

let touch t key slot =
  t.clock <- t.clock + 1;
  slot.stamp <- t.clock;
  Queue.push (key, t.clock) t.order

let rec evict_to_fit t =
  if t.resident_words > t.capacity_words && not (Queue.is_empty t.order)
  then begin
    let k, stamp = Queue.pop t.order in
    (match Hashtbl.find_opt t.tbl k with
     | Some slot when slot.stamp = stamp ->
       (* current marker: this really is the least recently used entry *)
       Hashtbl.remove t.tbl k;
       t.resident_words <- t.resident_words - slot.words;
       Obs.Metrics.set g_resident_words (float_of_int t.resident_words);
       t.evictions <- t.evictions + 1;
       Obs.Metrics.incr m_evictions
     | _ -> ());  (* stale marker or already evicted: skip *)
    evict_to_fit t
  end

let find t ~ir_digest ~fuel =
  match Hashtbl.find_opt t.tbl (key ~ir_digest ~fuel) with
  | Some slot ->
    t.hits <- t.hits + 1;
    Obs.Metrics.incr m_hits;
    touch t (key ~ir_digest ~fuel) slot;
    Some slot.tr
  | None -> None

let find_or_generate t ~ir_digest ~fuel gen =
  let k = key ~ir_digest ~fuel in
  match Hashtbl.find_opt t.tbl k with
  | Some slot ->
    t.hits <- t.hits + 1;
    Obs.Metrics.incr m_hits;
    touch t k slot;
    slot.tr
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr m_misses;
    (* the durable tier answers memory misses before [gen]; a fresh
       generation is written through so later runs find it *)
    let tr =
      match t.store with
      | None -> gen ()
      | Some store -> (
        match Tstore.find store ~ir_digest ~fuel with
        | Some tr -> tr
        | None ->
          let tr = gen () in
          Tstore.add store ~ir_digest ~fuel tr;
          tr)
    in
    let words = words_of tr in
    if words <= t.capacity_words then begin
      (* insert first, then shrink: the newest entry is never the LRU *)
      let slot = { tr; words; stamp = 0 } in
      Hashtbl.replace t.tbl k slot;
      t.resident_words <- t.resident_words + words;
      Obs.Metrics.set g_resident_words (float_of_int t.resident_words);
      touch t k slot;
      evict_to_fit t
    end
    else begin
      (* a trace bigger than the whole budget would evict everything
         and still not fit — hand it back unretained *)
      t.uncached <- t.uncached + 1;
      Obs.Metrics.set g_uncached (float_of_int t.uncached)
    end;
    tr

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let uncached t = t.uncached
let resident t = Hashtbl.length t.tbl
let resident_words t = t.resident_words
let capacity_words t = t.capacity_words
