(* The result store: a bounded LRU over a durable log of sealed lines
   (results.log, see Dlog).  Log format v3, header "mira-rescache 3":
     ok|<key>|<ir>|<cycles>|<code_size>|<c0,c1,...>
     fail|<key>|<ir>
   <ir> is the 32-hex digest of the compiled (post-pipeline) IR the
   measurement came from, which is what lets the engine dedup simulator
   runs across sequences that converge to identical code.  Legacy v1/v2
   logs carry no IR digest, so their lines cannot be promoted: every
   line is quarantined and the log rewritten as an empty v3 store (the
   entries are re-measured on demand).

   Injection points consulted here (see Faults): flip-append,
   torn-append, fail-append, in that order, on each append; Dlog adds
   stale-lock and compact-crash. *)

type entry =
  | Measured of {
      ir_digest : string;
      cycles : int;
      code_size : int;
      counters : int array;
    }
  | Failure of { ir_digest : string }

exception Cache_error = Dlog.Error

type absorb_stats = Dlog.absorb_stats = {
  absorbed : int;
  duplicates : int;
  rejected : int;
}

(* LRU bookkeeping: every touch pushes (key, stamp) and records the stamp
   as the key's newest; eviction pops until it finds a pair whose stamp is
   still current (stale pairs are skipped). *)
type t = {
  tbl : (string, entry * int) Hashtbl.t;
  order : (string * int) Queue.t;
  mutable stamp : int;
  mutable known : int;
  capacity : int;
  log : entry Dlog.t option;
}

let default_capacity = 262_144

(* ------------------------------------------------------------------ *)
(* the LRU front *)

let touch t key entry =
  t.stamp <- t.stamp + 1;
  if not (Hashtbl.mem t.tbl key) then t.known <- t.known + 1;
  Hashtbl.replace t.tbl key (entry, t.stamp);
  Queue.add (key, t.stamp) t.order;
  while Hashtbl.length t.tbl > t.capacity do
    match Queue.take_opt t.order with
    | None -> Hashtbl.reset t.tbl (* unreachable: order covers tbl *)
    | Some (k, s) -> (
      match Hashtbl.find_opt t.tbl k with
      | Some (_, s') when s' = s -> Hashtbl.remove t.tbl k
      | _ -> () (* stale pair *))
  done

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some (e, _) ->
    touch t key e;
    Some e

(* ------------------------------------------------------------------ *)
(* line payloads *)

let entry_to_line key = function
  | Measured { ir_digest; cycles; code_size; counters } ->
    Printf.sprintf "ok|%s|%s|%d|%d|%s" key ir_digest cycles code_size
      (String.concat "," (List.map string_of_int (Array.to_list counters)))
  | Failure { ir_digest } -> Printf.sprintf "fail|%s|%s" key ir_digest

(* Dlog.dec is strictly decimal, so int_of_string cannot be tricked into
   accepting "0x10", "1_0" or a sign; Dlog.hex 32 is exactly what
   Digest.to_hex produces *)
let entry_of_line line =
  let invalid why = Error (Printf.sprintf "%s: %S" why line) in
  match String.split_on_char '|' line with
  | [ "fail"; key; ir ] ->
    if key = "" then invalid "empty key"
    else if not (Dlog.hex 32 ir) then invalid "malformed IR digest"
    else Ok (key, Failure { ir_digest = ir })
  | [ "ok"; key; ir; cycles; code_size; counters ] ->
    if key = "" then invalid "empty key"
    else if not (Dlog.hex 32 ir) then invalid "malformed IR digest"
    else if not (Dlog.dec cycles && Dlog.dec code_size) then
      invalid "non-decimal cycles or size"
    else begin
      let fields =
        if counters = "" then []
        else String.split_on_char ',' counters
      in
      if not (List.for_all Dlog.dec fields) then invalid "non-decimal counter"
      else
        match
          ( int_of_string cycles,
            int_of_string code_size,
            List.map int_of_string fields )
        with
        | cycles, code_size, counters ->
          Ok
            ( key,
              Measured
                {
                  ir_digest = ir;
                  cycles;
                  code_size;
                  counters = Array.of_list counters;
                } )
        | exception Failure _ -> invalid "value out of range"
    end
  | _ -> invalid "malformed log line"

let spec =
  {
    Dlog.name = "rcache";
    noun = "result cache";
    file = "results.log";
    lock = "cache.lock";
    magic = "mira-rescache 3";
    legacy = [ "mira-rescache 1"; "mira-rescache 2" ];
    blob = false;
    parse =
      (fun marker line ->
        if marker = None then Result.to_option (entry_of_line line) else None);
    print = entry_to_line;
  }

let seal_line = Dlog.seal

(* ------------------------------------------------------------------ *)

let in_memory ?(mem_capacity = default_capacity) () =
  {
    tbl = Hashtbl.create 1024;
    order = Queue.create ();
    stamp = 0;
    known = 0;
    capacity = max 1 mem_capacity;
    log = None;
  }

let open_dir ?mem_capacity dir =
  let t = in_memory ?mem_capacity () in
  let log =
    Dlog.open_dir spec dir
      ~load:(fun key e _ -> touch t key e)
      ~entries:(fun () -> t.known)
  in
  { t with log = Some log }

let add t key entry =
  touch t key entry;
  match t.log with
  | None -> ()
  | Some log ->
    ignore
      (Dlog.append log key entry (fun () ->
           let flip = Faults.fires "flip-append" in
           let tear = Faults.fires "torn-append" in
           let fail = (not tear) && Faults.fires "fail-append" in
           { Dlog.flip; tear; fail }))

let compact t = Option.iter Dlog.compact t.log

let absorb t donor =
  Dlog.absorb spec ~mem:(Hashtbl.mem t.tbl) ~add:(add t)
    ~compact:(fun () -> compact t)
    donor

let of_log f t = match t.log with Some log -> f log | None -> 0
let resident t = Hashtbl.length t.tbl
let known t = t.known
let quarantined t = of_log Dlog.quarantined t
let write_errors t = of_log Dlog.write_errors t
let stale_locks_broken t = of_log Dlog.stale_locks_broken t
let close t = Option.iter Dlog.close t.log
