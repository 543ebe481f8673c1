(* The per-layer fold of a traced benchmark region.  See fold.mli for the
   attribution rules; the state is one open-span stack per pid plus the
   stack of the parent's open pool batches, to which forwarded worker
   spans are charged in the order the parent's sink received them. *)

module T = Obs.Trace

type span_stat = { calls : int; total_ms : float; self_ms : float }

type t = {
  wall_ms : float;
  unattributed_ms : float;
  layers : (string * float) list;
  spans : (string * span_stat) list;
  pool_batches : int;
  pool_tasks : int;
  pool_wait_ms : float;
  pool_busy_ms : float;
  pool_capacity_ms : float;
  unbalanced_ends : int;
  unclosed : int;
}

let layer_of ~cat ~name =
  match cat with
  | "trace" ->
    if String.starts_with ~prefix:"mtrace." name then "mtrace" else "replay"
  | "sim" -> "flatsim"
  | "bench" -> "unattributed"
  | c -> c

type frame = { name : string; cat : string; t0 : float; mutable child : float }

type batch = {
  workers : int;
  tasks : int;
  wself : (string, float) Hashtbl.t;  (* worker self ms by layer *)
  mutable wbusy : float;  (* top-level pool.task ms on worker pids *)
  mutable sbusy : float;  (* pool.task ms run serially on the parent *)
}

let int_arg args k =
  match List.assoc_opt k args with Some (T.Int i) -> i | _ -> 0

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

let sorted tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let fold ~root (events : T.event list) : t =
  let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack pid =
    match Hashtbl.find_opt stacks pid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks pid s;
      s
  in
  let parent = ref None and root_open = ref false in
  let batches = ref [] in
  let layers = Hashtbl.create 16 in
  let stats : (string, span_stat) Hashtbl.t = Hashtbl.create 64 in
  let wall = ref 0.0 and unattributed = ref 0.0 in
  let nbatches = ref 0 and ntasks = ref 0 in
  let wait = ref 0.0 and busy = ref 0.0 and capacity = ref 0.0 in
  let unbalanced = ref 0 in
  let close_batch b ~dur ~self =
    let cap = float_of_int b.workers *. dur in
    let wsum = Hashtbl.fold (fun _ v acc -> acc +. v) b.wself 0.0 in
    let covered =
      if wsum > 0.0 && cap > 0.0 then self *. Float.min 1.0 (b.wbusy /. cap)
      else 0.0
    in
    Hashtbl.iter (fun l v -> bump layers l (covered *. v /. wsum)) b.wself;
    bump layers "pool" (self -. covered);
    incr nbatches;
    ntasks := !ntasks + b.tasks;
    wait := !wait +. self;
    busy := !busy +. b.wbusy +. b.sbusy;
    capacity := !capacity +. cap
  in
  let on_parent pid = !parent = Some pid in
  let begin_ (e : T.event) =
    if e.name = root && not !root_open then begin
      parent := Some e.pid;
      root_open := true
    end
    else if !root_open && on_parent e.pid && e.name = "pool.batch" then begin
      let jobs = int_arg e.args "jobs" and tasks = int_arg e.args "tasks" in
      let workers = if jobs <= 1 || tasks <= 1 then 1 else min jobs tasks in
      batches :=
        { workers; tasks; wself = Hashtbl.create 8; wbusy = 0.0; sbusy = 0.0 }
        :: !batches
    end;
    let s = stack e.pid in
    s := { name = e.name; cat = e.cat; t0 = e.ts; child = 0.0 } :: !s
  in
  let end_ (e : T.event) =
    let s = stack e.pid in
    match !s with
    | [] -> incr unbalanced
    | f :: rest ->
      s := rest;
      let dur = (e.ts -. f.t0) *. 1e3 in
      let self = dur -. f.child in
      (match rest with p :: _ -> p.child <- p.child +. dur | [] -> ());
      let st =
        Option.value (Hashtbl.find_opt stats f.name)
          ~default:{ calls = 0; total_ms = 0.0; self_ms = 0.0 }
      in
      Hashtbl.replace stats f.name
        { calls = st.calls + 1; total_ms = st.total_ms +. dur;
          self_ms = st.self_ms +. self };
      let layer = layer_of ~cat:f.cat ~name:f.name in
      if on_parent e.pid then begin
        if !root_open then
          if f.name = root then begin
            wall := dur;
            unattributed := self;
            root_open := false
          end
          else if f.name = "pool.batch" then begin
            match !batches with
            | b :: bs ->
              batches := bs;
              close_batch b ~dur ~self
            | [] -> bump layers layer self
          end
          else begin
            bump layers layer self;
            match (f.name, !batches) with
            | "pool.task", b :: _ -> b.sbusy <- b.sbusy +. dur
            | _ -> ()
          end
      end
      else
        match !batches with
        | b :: _ ->
          bump b.wself layer self;
          if f.name = "pool.task" && rest = [] then b.wbusy <- b.wbusy +. dur
        | [] -> ()
  in
  List.iter
    (fun (e : T.event) ->
      match e.ph with T.B -> begin_ e | T.E -> end_ e | T.I | T.C -> ())
    events;
  let unclosed = Hashtbl.fold (fun _ s acc -> acc + List.length !s) stacks 0 in
  {
    wall_ms = !wall;
    unattributed_ms = !unattributed;
    layers = sorted layers;
    spans = sorted stats;
    pool_batches = !nbatches;
    pool_tasks = !ntasks;
    pool_wait_ms = !wait;
    pool_busy_ms = !busy;
    pool_capacity_ms = !capacity;
    unbalanced_ends = !unbalanced;
    unclosed;
  }

let layer_ms t l = Option.value (List.assoc_opt l t.layers) ~default:0.0

let span t name =
  Option.value (List.assoc_opt name t.spans)
    ~default:{ calls = 0; total_ms = 0.0; self_ms = 0.0 }

let arg_sum events ~span ~arg =
  List.fold_left
    (fun acc (e : T.event) ->
      if e.ph = T.E && e.name = span then
        match List.assoc_opt arg e.args with
        | Some (T.Int i) -> acc +. float_of_int i
        | Some (T.Float f) -> acc +. f
        | _ -> acc
      else acc)
    0.0 events

let utilization t =
  if t.pool_capacity_ms > 0.0 then t.pool_busy_ms /. t.pool_capacity_ms
  else 0.0
