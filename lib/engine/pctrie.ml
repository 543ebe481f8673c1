(* Memoized single-pass compilation keyed by (input-IR digest, pass).
   See the .mli for the soundness argument; the LRU follows Rcache's
   touch/stamp discipline so eviction is O(1) amortized. *)

module Ir = Mira.Ir
module Pass = Passes.Pass

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = {
  tbl : (string, (Ir.program * string) * int) Hashtbl.t;
  order : (string * int) Queue.t;
  mutable stamp : int;
  capacity : int;
  stats : stats;
}

let default_capacity = 4096

(* mirrored into the global registry so `--metrics` shows trie traffic
   next to the engine's eval/hit/miss counters *)
let m_hits = Obs.Metrics.counter "engine.trie_hits"
let m_misses = Obs.Metrics.counter "engine.trie_misses"
let m_evictions = Obs.Metrics.counter "engine.trie_evictions"

let create ?(capacity = default_capacity) () =
  {
    tbl = Hashtbl.create 1024;
    order = Queue.create ();
    stamp = 0;
    capacity = max 1 capacity;
    stats = { hits = 0; misses = 0; evictions = 0 };
  }

(* The printed form is not the whole program value: it omits each
   function's fresh-name counters ([nregs]/[nlabels], read by passes
   that mint fresh registers or labels, e.g. inline and strength
   reduction), each global's element type and initializers ([gelt] is
   rewritten by the packing pass based on [ginit]), and [main].  Two
   states printing identically can therefore still diverge under later
   passes or the simulator, so the node identity folds all of that
   hidden state in alongside the text.  The printer does give each
   global's size, and [ginit] holds only the written initializers (the
   rest, up to that size, is zero), so the digest covers the whole
   memory image while its cost follows the data the source wrote. *)
let digest (p : Ir.program) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Ir.to_string p);
  Buffer.add_string b "\x00main=";
  Buffer.add_string b p.Ir.main;
  List.iter
    (fun (g : Ir.global) ->
      Buffer.add_string b
        (Printf.sprintf "\x00%s:%s:" g.Ir.gname
           (match g.Ir.gelt with
            | Ir.EltInt -> "i"
            | Ir.EltInt32 -> "i32"
            | Ir.EltFloat -> "f"));
      Array.iter
        (fun v -> Buffer.add_string b (Printf.sprintf "%h," v))
        g.Ir.ginit)
    p.Ir.globals;
  Ir.SMap.iter
    (fun name (f : Ir.func) ->
      Buffer.add_string b
        (Printf.sprintf "\x00%s=%d,%d" name f.Ir.nregs f.Ir.nlabels))
    p.Ir.funcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* digests are fixed-width hex, so '|' cannot occur in either part *)
let edge_key d pass = d ^ "|" ^ Pass.name pass

let touch t key v =
  t.stamp <- t.stamp + 1;
  Hashtbl.replace t.tbl key (v, t.stamp);
  Queue.add (key, t.stamp) t.order;
  while Hashtbl.length t.tbl > t.capacity do
    match Queue.take_opt t.order with
    | None -> Hashtbl.reset t.tbl (* unreachable: order covers tbl *)
    | Some (k, s) -> (
      match Hashtbl.find_opt t.tbl k with
      | Some (_, s') when s' = s ->
        Hashtbl.remove t.tbl k;
        t.stats.evictions <- t.stats.evictions + 1;
        Obs.Metrics.incr m_evictions
      | _ -> () (* stale pair *))
  done

let apply t p ~digest:d pass =
  let k = edge_key d pass in
  match Hashtbl.find_opt t.tbl k with
  | Some (v, _) ->
    t.stats.hits <- t.stats.hits + 1;
    Obs.Metrics.incr m_hits;
    touch t k v;
    v
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    Obs.Metrics.incr m_misses;
    let p' = Pass.apply pass p in
    let v = (p', digest p') in
    touch t k v;
    v

let apply_sequence t p ~digest seq =
  List.fold_left (fun (p, d) pass -> apply t p ~digest:d pass) (p, digest) seq

let hits t = t.stats.hits
let misses t = t.stats.misses
let evictions t = t.stats.evictions
let resident t = Hashtbl.length t.tbl
