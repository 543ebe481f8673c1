(* Coordinator/worker orchestration for distributed sweeps (see
   dist.mli).  Deliberately minimal machinery: one Unix-domain listener,
   a select loop, length-prefixed frames of '|'-separated fields, and
   per-home shard queues with steal-from-the-back rebalancing.  Worker
   death is an expected event, not an error: the connection loss
   re-queues the in-flight shard at the front of its home queue, so a
   respawned worker with the same directory resumes it from the shard
   journal instead of recomputing it. *)

type stats = {
  mutable run_id : string;
  mutable workers_seen : int;
  mutable shards_served : int;
  mutable steals : int;
  mutable requeues : int;
  mutable worker_deaths : int;
  mutable respawns : int;
  mutable serial_fallbacks : int;
  mutable absorbed : int;
  mutable absorb_duplicates : int;
  mutable absorb_rejected : int;
}

exception Dist_error of string

type spec = { job : string; n : int; chunk_size : int; shards : int }

(* observability: the whole orchestration story in counters — how many
   grants, how many were steals, how much work a death put back, how
   often the local mode had to respawn or give up on processes *)
let m_workers = Obs.Metrics.counter "dist.workers"
let m_served = Obs.Metrics.counter "dist.shards_served"
let m_steals = Obs.Metrics.counter "dist.steals"
let m_requeues = Obs.Metrics.counter "dist.requeues"
let m_deaths = Obs.Metrics.counter "dist.worker_deaths"
let m_respawns = Obs.Metrics.counter "dist.respawns"
let m_serial = Obs.Metrics.counter "dist.serial_fallbacks"
let shard_ms = Obs.Metrics.histogram "dist.shard_ms"

let new_stats () =
  {
    run_id = "";
    workers_seen = 0;
    shards_served = 0;
    steals = 0;
    requeues = 0;
    worker_deaths = 0;
    respawns = 0;
    serial_fallbacks = 0;
    absorbed = 0;
    absorb_duplicates = 0;
    absorb_rejected = 0;
  }

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let worker_dir ~dir i =
  Filename.concat (Filename.concat dir "workers") (Printf.sprintf "w%d" i)

let serial_dir dir = Filename.concat (Filename.concat dir "workers") "serial"

(* the run id: a fresh digest over the job key, wall clock and pid —
   unique per coordinator invocation, stable for its whole lifetime.
   It is recorded in the manifest, stamped on every process's trace
   ({!Obs.Trace.set_run}) and returned to workers in the hello reply. *)
let mint_run spec =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "run\x00%s\x00%d\x00%.9f\x00%d" spec.job spec.n
          (Unix.gettimeofday ()) (Unix.getpid ())))

let worker_subdirs dir =
  let wroot = Filename.concat dir "workers" in
  match Sys.readdir wroot with
  | exception Sys_error _ -> []
  | arr ->
    Array.to_list arr
    |> List.filter (fun d ->
           try Sys.is_directory (Filename.concat wroot d)
           with Sys_error _ -> false)
    |> List.sort compare

(* ------------------------------------------------------------------ *)
(* framing: 8 hex digits of payload length, then the payload.  Frames
   are small (the largest is a done message: one hex float per item of
   one shard), so blocking writes are fine on both sides. *)

let max_frame = 1 lsl 24

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let send_frame fd payload =
  write_all fd (Printf.sprintf "%08x%s" (String.length payload) payload)

let is_hex s =
  String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* blocking read of exactly [n] bytes; None on clean EOF before the
   first byte, raises on EOF mid-read *)
let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  (try
     while !off < n do
       match Unix.read fd b !off (n - !off) with
       | 0 -> raise Exit
       | k -> off := !off + k
     done
   with Exit -> ());
  if !off = 0 then None
  else if !off < n then raise (Dist_error "connection closed mid-frame")
  else Some (Bytes.to_string b)

(* worker side: blocking frame read; None on clean EOF *)
let recv_frame fd =
  match read_exact fd 8 with
  | None -> None
  | Some lenh ->
    if not (is_hex lenh) then raise (Dist_error "malformed frame length");
    let len = int_of_string ("0x" ^ lenh) in
    if len > max_frame then raise (Dist_error "oversized frame");
    if len = 0 then Some ""
    else (
      match read_exact fd len with
      | None -> raise (Dist_error "connection closed mid-frame")
      | Some p -> Some p)

(* costs travel as %h hex floats: lossless round-trip, including
   infinity, so the distributed sweep is bit-identical to a serial one *)
let hex_costs costs =
  String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list costs))

let costs_of_hex s =
  if String.trim s = "" then [||]
  else Array.of_list (List.map float_of_string (String.split_on_char ' ' s))

(* ------------------------------------------------------------------ *)
(* coordinator *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : string;          (* bytes received, not yet framed *)
  mutable greeted : bool;
  mutable wname : string;         (* the name the worker announced *)
  mutable home : int;
  mutable inflight : Shard.t option;
  mutable granted : float;        (* when the in-flight shard was sent *)
  mutable parked : bool;          (* a [need] awaiting work *)
  mutable finished : bool;        (* [fin] sent *)
}

type state = {
  spec : spec;
  run : string;                   (* the minted run id *)
  total : int;                    (* shard count *)
  queues : Shard.t list array;    (* per home slot, front = next *)
  results : float array option array;
  mutable completed : int;
  mutable shard_log : (int * string * float) list;
      (* (shard id, completing worker, grant-to-done secs), first
         completion only — feeds the rollup's per-shard throughput *)
  mutable conns : conn list;
  st : stats;
}

let listen_on socket =
  mkdir_p (Filename.dirname socket);
  (try if Sys.file_exists socket then Sys.remove socket with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX socket);
     Unix.listen fd 64
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with _ -> ());
     raise
       (Dist_error
          (Printf.sprintf "cannot listen on %s: %s" socket
             (Unix.error_message e))));
  fd

let queue_pop_front st h =
  match st.queues.(h) with
  | s :: rest ->
    st.queues.(h) <- rest;
    Some s
  | [] -> None

(* steal from the back of the longest queue, leaving early (home) shards
   with their home — the thief takes the work its owner would reach last *)
let queue_steal st =
  let best = ref (-1) and best_len = ref 0 in
  Array.iteri
    (fun h q ->
      let l = List.length q in
      if l > !best_len then begin
        best := h;
        best_len := l
      end)
    st.queues;
  if !best < 0 then None
  else begin
    let rec split acc = function
      | [ s ] -> (List.rev acc, s)
      | x :: rest -> split (x :: acc) rest
      | [] -> assert false
    in
    let front, s = split [] st.queues.(!best) in
    st.queues.(!best) <- front;
    Some s
  end

(* drop/unpark/grant are mutually recursive: a failed send drops the
   connection, a drop with an in-flight shard re-queues it and wakes
   parked connections, waking a parked connection sends it a frame.
   Every entry point guards on membership in [st.conns], so cascaded
   drops during an [unpark] sweep are counted exactly once. *)
let rec drop_conn st c ~death =
  if List.memq c st.conns then begin
    st.conns <- List.filter (fun c' -> c' != c) st.conns;
    (try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ());
    if death && c.greeted && not c.finished then begin
      st.st.worker_deaths <- st.st.worker_deaths + 1;
      Obs.Metrics.incr m_deaths;
      (match c.inflight with
       | Some s ->
         (* front of the home queue: a respawned worker with the same
            directory picks it straight back up, resuming its journal *)
         st.queues.(c.home) <- s :: st.queues.(c.home);
         st.st.requeues <- st.st.requeues + 1;
         Obs.Metrics.incr m_requeues;
         Obs.Trace.instant ~cat:"dist"
           ~args:[ ("shard", Obs.Trace.Int s.Shard.id) ]
           "dist.requeue"
       | None -> ());
      c.inflight <- None;
      unpark st
    end
  end

and unpark st =
  List.iter
    (fun c ->
      if c.parked && not c.finished && List.memq c st.conns then grant st c)
    st.conns

and safe_send st c payload =
  try send_frame c.fd payload
  with Unix.Unix_error (_, _, _) | Sys_error _ -> drop_conn st c ~death:true

and grant st c =
  let give s ~stolen =
    st.st.shards_served <- st.st.shards_served + 1;
    Obs.Metrics.incr m_served;
    if stolen then begin
      st.st.steals <- st.st.steals + 1;
      Obs.Metrics.incr m_steals;
      Obs.Trace.instant ~cat:"dist"
        ~args:[ ("shard", Obs.Trace.Int s.Shard.id) ]
        "dist.steal"
    end;
    (* in-flight before the send: if the send fails, the drop re-queues *)
    c.inflight <- Some s;
    c.granted <- Unix.gettimeofday ();
    c.parked <- false;
    safe_send st c
      (Printf.sprintf "shard|%d|%d|%d" s.Shard.id s.Shard.lo s.Shard.hi)
  in
  match queue_pop_front st c.home with
  | Some s -> give s ~stolen:false
  | None -> (
    match queue_steal st with
    | Some s -> give s ~stolen:true
    | None ->
      if st.completed >= st.total then begin
        c.parked <- false;
        c.finished <- true;
        safe_send st c "fin"
      end
      else
        (* everything is in flight elsewhere; answer when a shard comes
           back (completion -> fin, or a death re-queues it) *)
        c.parked <- true)

let handle_message st c payload =
  match String.split_on_char '|' payload with
  | [ "hello"; name; slot; job; n; cs ] ->
    if
      job <> st.spec.job
      || n <> string_of_int st.spec.n
      || cs <> string_of_int st.spec.chunk_size
    then begin
      safe_send st c "reject|job key mismatch (different sweep inputs)";
      drop_conn st c ~death:false
    end
    else begin
      c.greeted <- true;
      c.wname <- name;
      st.st.workers_seen <- st.st.workers_seen + 1;
      Obs.Metrics.incr m_workers;
      let homes = Array.length st.queues in
      c.home <-
        (match int_of_string_opt slot with
         | Some s when s >= 0 -> s mod homes
         | _ -> (st.st.workers_seen - 1) mod homes);
      (* the reply carries the run id: that is how the correlation id
         crosses the process boundary to every worker's telemetry *)
      safe_send st c ("ok|" ^ st.run)
    end
  | [ "need" ] when c.greeted -> grant st c
  | [ "done"; id; costs ] when c.greeted -> (
    match int_of_string_opt id with
    | Some id when id >= 0 && id < st.total -> (
      let costs = try costs_of_hex costs with Failure _ -> [||] in
      match c.inflight with
      | Some s
        when s.Shard.id = id && Array.length costs = s.Shard.hi - s.Shard.lo
        ->
        c.inflight <- None;
        if st.results.(id) = None then begin
          st.results.(id) <- Some costs;
          st.shard_log <-
            (id, c.wname, Unix.gettimeofday () -. c.granted) :: st.shard_log;
          st.completed <- st.completed + 1;
          if st.completed >= st.total then unpark st
        end
      | _ ->
        (* a done for a shard this connection does not hold, or of the
           wrong size: the worker is confused — drop it, re-queuing
           whatever it really held *)
        drop_conn st c ~death:true)
    | _ -> drop_conn st c ~death:true)
  | _ -> drop_conn st c ~death:true

(* cut buffered bytes into frames; a malformed frame is a dead worker *)
let pump st c =
  let continue = ref true in
  while !continue do
    let buf = c.rbuf in
    if String.length buf < 8 then continue := false
    else begin
      let lenh = String.sub buf 0 8 in
      if not (is_hex lenh) then begin
        drop_conn st c ~death:true;
        continue := false
      end
      else
        let len = int_of_string ("0x" ^ lenh) in
        if len > max_frame then begin
          drop_conn st c ~death:true;
          continue := false
        end
        else if String.length buf < 8 + len then continue := false
        else begin
          let payload = String.sub buf 8 len in
          c.rbuf <- String.sub buf (8 + len) (String.length buf - 8 - len);
          handle_message st c payload;
          if not (List.memq c st.conns) then continue := false
        end
    end
  done

let read_conn st c =
  let b = Bytes.create 8192 in
  match Unix.read c.fd b 0 8192 with
  | 0 -> drop_conn st c ~death:true
  | k ->
    c.rbuf <- c.rbuf ^ Bytes.sub_string b 0 k;
    pump st c
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    drop_conn st c ~death:true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* run telemetry: journal scanning + rollup building

   The coordinator and a cold `miracc sweep-status` both want the same
   view: per-shard chunks done, read straight from whatever journals the
   workers left under <dir>/workers/ (home runs, stolen shards, serial
   fallback — all of them), validated against each shard's derived
   journal key so an alien or stale journal never inflates progress. *)

type shard_scan = { sworker : string; sdone : int; storn : int }

let scan_worker_journals ~dir ~job ~chunk_size (plan : Shard.t array) =
  let wroot = Filename.concat dir "workers" in
  let subdirs = worker_subdirs dir in
  Array.map
    (fun (s : Shard.t) ->
      let expect =
        Journal.derived_key ~key:(Shard.key ~job s) ~chunk_size
          ~n:(s.Shard.hi - s.Shard.lo)
      in
      let acc = ref { sworker = ""; sdone = 0; storn = 0 } in
      List.iter
        (fun w ->
          let path =
            Filename.concat (Filename.concat wroot w)
              (Printf.sprintf "shard-%d.journal" s.Shard.id)
          in
          match Journal.describe ~path with
          | Some d when d.Journal.key = expect ->
            let a = !acc in
            (* several journals can exist for one shard (death + steal):
               the most advanced one is the shard's real progress *)
            acc :=
              {
                sworker =
                  (if d.Journal.done_chunks > a.sdone || a.sworker = "" then w
                   else a.sworker);
                sdone = max a.sdone d.Journal.done_chunks;
                storn = a.storn + d.Journal.torn;
              }
          | _ -> ())
        subdirs;
      !acc)
    plan

let worker_metrics_docs ~dir =
  let wroot = Filename.concat dir "workers" in
  List.filter_map
    (fun w ->
      let p = Filename.concat (Filename.concat wroot w) "metrics.jsonl" in
      match Obs.Json.read_file p with
      | text -> Some text
      | exception Sys_error _ -> None)
    (worker_subdirs dir)

let rollup_of_state ~dir ~t0 (st : state) (plan : Shard.t array) =
  let scans =
    scan_worker_journals ~dir ~job:st.spec.job ~chunk_size:st.spec.chunk_size
      plan
  in
  let shards =
    Array.to_list
      (Array.mapi
         (fun i (s : Shard.t) ->
           let scan = scans.(i) in
           let total =
             (s.Shard.hi - s.Shard.lo + st.spec.chunk_size - 1)
             / st.spec.chunk_size
           in
           let finished = st.results.(i) <> None in
           let logged =
             List.find_opt (fun (id, _, _) -> id = s.Shard.id) st.shard_log
           in
           {
             Obs.Rollup.shard = s.Shard.id;
             worker =
               (match logged with
                | Some (_, w, _) -> w
                | None -> scan.sworker);
             chunks_total = total;
             chunks_done = (if finished then total else min scan.sdone total);
             torn = scan.storn;
             secs = (match logged with Some (_, _, t) -> t | None -> 0.0);
           })
         plan)
  in
  {
    Obs.Rollup.run = st.run;
    job = st.spec.job;
    n = st.spec.n;
    chunk_size = st.spec.chunk_size;
    elapsed_s = Unix.gettimeofday () -. t0;
    workers_seen = st.st.workers_seen;
    shards_served = st.st.shards_served;
    steals = st.st.steals;
    requeues = st.st.requeues;
    worker_deaths = st.st.worker_deaths;
    respawns = st.st.respawns;
    serial_fallbacks = st.st.serial_fallbacks;
    absorbed = st.st.absorbed;
    absorb_duplicates = st.st.absorb_duplicates;
    absorb_rejected = st.st.absorb_rejected;
    shards;
    metrics_docs = Obs.Metrics.to_jsonl () :: worker_metrics_docs ~dir;
  }

(* best effort: a rollup that cannot be written must never hurt the
   sweep it describes *)
let write_rollup ~dir ~t0 st plan =
  try
    Obs.Rollup.write
      ~path:(Filename.concat dir "rollup.json")
      (rollup_of_state ~dir ~t0 st plan)
  with Sys_error _ | Unix.Unix_error (_, _, _) -> ()

let serve_core ~listener ~socket ~dir ~homes ?(meta = []) ?(tick = fun _ -> ())
    ?run spec =
  if homes <= 0 then invalid_arg "Dist.serve: workers must be > 0";
  mkdir_p dir;
  let run = match run with Some r -> r | None -> mint_run spec in
  let t0 = Unix.gettimeofday () in
  (* correlate this process's own telemetry with the run before any
     span of the serve loop is emitted *)
  Obs.Trace.set_run run;
  let plan = Shard.plan ~n:spec.n ~shards:spec.shards in
  Shard.write_manifest
    ~path:(Filename.concat dir "manifest.json")
    ~run ~job:spec.job ~n:spec.n ~chunk_size:spec.chunk_size ~meta plan;
  let total = Array.length plan in
  let st =
    {
      spec;
      run;
      total;
      queues = Array.make homes [];
      results = Array.make total None;
      completed = 0;
      shard_log = [];
      conns = [];
      st = new_stats ();
    }
  in
  st.st.run_id <- run;
  (* home assignment: shard id mod homes, appended in index order so
     each home queue runs front-to-back in sweep order *)
  for i = total - 1 downto 0 do
    let h = i mod homes in
    st.queues.(h) <- plan.(i) :: st.queues.(h)
  done;
  let prev_sigpipe =
    (* a worker dying mid-send must surface as EPIPE, not kill us *)
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
        st.conns;
      st.conns <- [];
      (try Unix.close listener with Unix.Unix_error (_, _, _) -> ());
      (try if Sys.file_exists socket then Sys.remove socket
       with Sys_error _ -> ());
      match prev_sigpipe with
      | Some h -> ignore (Sys.signal Sys.sigpipe h)
      | None -> ())
    (fun () ->
      let drain_deadline = ref None in
      let finished () =
        if st.completed < st.total then false
        else begin
          (* completion reached: give connected workers a bounded
             window to ask for (and receive) their fin *)
          (match !drain_deadline with
           | None -> drain_deadline := Some (Unix.gettimeofday () +. 5.0)
           | Some _ -> ());
          st.conns = [] || Unix.gettimeofday () > Option.get !drain_deadline
        end
      in
      let last_rollup = ref 0.0 in
      while not (finished ()) do
        tick st;
        (* the live rollup: refreshed at most twice a second, atomically
           replaced, so `sweep-status --follow` always reads a coherent
           document while the run is in flight *)
        let nowt = Unix.gettimeofday () in
        if nowt -. !last_rollup > 0.5 then begin
          last_rollup := nowt;
          write_rollup ~dir ~t0 st plan
        end;
        let fds = listener :: List.map (fun c -> c.fd) st.conns in
        match Unix.select fds [] [] 0.05 with
        | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = listener then (
                match Unix.accept listener with
                | cfd, _ ->
                  st.conns <-
                    {
                      fd = cfd;
                      rbuf = "";
                      greeted = false;
                      wname = "";
                      home = 0;
                      inflight = None;
                      granted = 0.0;
                      parked = false;
                      finished = false;
                    }
                    :: st.conns
                | exception Unix.Unix_error (_, _, _) -> ())
              else
                match List.find_opt (fun c -> c.fd = fd) st.conns with
                | Some c -> (
                  try read_conn st c
                  with Dist_error _ -> drop_conn st c ~death:true)
                | None -> ())
            readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      write_rollup ~dir ~t0 st plan;
      let costs = Array.make spec.n nan in
      Array.iteri
        (fun i s ->
          match st.results.(i) with
          | Some c -> Array.blit c 0 costs s.Shard.lo (s.Shard.hi - s.Shard.lo)
          | None -> assert false)
        plan;
      (st.st, costs))

let serve ~socket ~dir ~workers ?meta spec =
  if workers <= 0 then invalid_arg "Dist.serve: workers must be > 0";
  let listener = listen_on socket in
  Obs.span_with ~cat:"dist" "dist.serve"
    ~end_args:(fun ((s : stats), _) ->
      [
        ("workers", Obs.Trace.Int s.workers_seen);
        ("shards", Obs.Trace.Int s.shards_served);
        ("steals", Obs.Trace.Int s.steals);
        ("requeues", Obs.Trace.Int s.requeues);
      ])
    (fun () -> serve_core ~listener ~socket ~dir ~homes:workers ?meta spec)

(* ------------------------------------------------------------------ *)
(* worker *)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec try_connect attempts =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempts > 0 ->
      Unix.sleepf 0.1;
      try_connect (attempts - 1)
    | exception Unix.Unix_error (e, _, _) ->
      raise
        (Dist_error
           (Printf.sprintf "cannot reach coordinator at %s: %s" socket
              (Unix.error_message e)))
  in
  (match try_connect 100 with
   | () -> ()
   | exception e ->
     (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
     raise e);
  fd

(* run one granted shard through a checkpointed journal; [eval] gets
   global item indices.  The dist-worker-exit fault (occurrence = shard
   id) is consulted only when the shard journal shows no progress — the
   shard's first attempt — and kills this process right after the first
   chunk is journaled, so the injected death always leaves a resumable
   checkpoint behind. *)
let run_shard ~dir ~spec ~eval (s : Shard.t) =
  let path = Filename.concat dir (Printf.sprintf "shard-%d.journal" s.id) in
  let fresh =
    match Journal.describe ~path with
    | Some d -> d.done_chunks = 0
    | None -> true
  in
  let on_chunk =
    if fresh && Faults.fires ~index:s.id "dist-worker-exit" then
      Some (fun (_ : int) -> Unix._exit 21)
    else None
  in
  Obs.span_with ~cat:"dist" ~hist:shard_ms "dist.shard"
    ~end_args:(fun _ ->
      let base =
        [
          ("shard", Obs.Trace.Int s.id);
          ("lo", Obs.Trace.Int s.lo);
          ("hi", Obs.Trace.Int s.hi);
        ]
      in
      (* the shared run id on every shard span: a merged trace filters
         to one run by arg, not by guessing from file layout *)
      match Obs.Trace.run_id () with
      | Some r -> ("run", Obs.Trace.Str r) :: base
      | None -> base)
    (fun () ->
      Journal.run ?on_chunk ~path ~key:(Shard.key ~job:spec.job s)
        ~chunk_size:spec.chunk_size ~n:(s.hi - s.lo) (fun a b ->
          eval (s.lo + a) (s.lo + b)))

let work ?(name = Printf.sprintf "w%d" (Unix.getpid ())) ?(slot = -1)
    ?metrics_path ~socket ~dir spec ~eval () =
  mkdir_p dir;
  let metrics_path =
    match metrics_path with
    | Some p -> p
    | None -> Filename.concat dir "metrics.jsonl"
  in
  (* the worker's metrics export, refreshed after every shard so a crash
     loses at most one shard's worth of counters; atomic via rename so a
     live rollup read never sees a torn file *)
  let write_metrics () =
    try Obs.Json.write_file metrics_path (Obs.Metrics.to_jsonl ())
    with Sys_error _ -> ()
  in
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      send_frame fd
        (Printf.sprintf "hello|%s|%d|%s|%d|%d" name slot spec.job spec.n
           spec.chunk_size);
      (match recv_frame fd with
       | Some "ok" -> ()
       | Some p when String.starts_with ~prefix:"ok|" p ->
         (* the coordinator's minted run id: from here on this worker's
            traces and spans carry the shared correlation id *)
         Obs.Trace.set_run (String.sub p 3 (String.length p - 3))
       | Some p when String.starts_with ~prefix:"reject|" p ->
         raise
           (Dist_error
              ("coordinator rejected worker: "
              ^ String.sub p 7 (String.length p - 7)))
       | Some _ -> raise (Dist_error "unexpected reply to hello")
       | None -> raise (Dist_error "coordinator hung up during hello"));
      let completed = ref 0 in
      let running = ref true in
      while !running do
        send_frame fd "need";
        match recv_frame fd with
        | Some "fin" | None -> running := false
        | Some p -> (
          match String.split_on_char '|' p with
          | [ "shard"; id; lo; hi ] -> (
            match
              (int_of_string_opt id, int_of_string_opt lo, int_of_string_opt hi)
            with
            | Some id, Some lo, Some hi ->
              let s = { Shard.id; lo; hi } in
              let costs = run_shard ~dir ~spec ~eval s in
              send_frame fd (Printf.sprintf "done|%d|%s" id (hex_costs costs));
              incr completed;
              write_metrics ()
            | _ -> raise (Dist_error "malformed shard grant"))
          | _ -> raise (Dist_error ("unexpected message: " ^ p)))
      done;
      write_metrics ();
      !completed)

(* ------------------------------------------------------------------ *)
(* one-command local mode *)

let sweep_local ~workers ~dir ?(max_respawns = 2) ?cache ?meta spec
    ~make_eval =
  if workers <= 0 then invalid_arg "Dist.sweep_local: workers must be > 0";
  mkdir_p dir;
  let socket = Filename.concat dir "coord.sock" in
  let listener = listen_on socket in
  let pids = Array.make workers None in
  let respawn_budget = ref max_respawns in
  let spawn i =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try Unix.close listener with Unix.Unix_error (_, _, _) -> ());
      let cpid = Unix.getpid () in
      let wdir = worker_dir ~dir i in
      mkdir_p wdir;
      (* when the parent is tracing, each worker writes its own
         crash-safe trace file (pid-suffixed: a respawn in the same slot
         must not clobber its predecessor's evidence), on the parent's
         epoch so `trace-merge` needs no rebasing.  Otherwise the plain
         fork isolation is enough. *)
      (if Obs.Trace.enabled () then
         match
           open_out
             (Filename.concat wdir (Printf.sprintf "trace-%d.json" cpid))
         with
         | oc -> Obs.Trace.stream_after_fork ~pid:cpid oc
         | exception Sys_error _ -> Obs.Trace.on_fork ~pid:cpid
       else Obs.Trace.on_fork ~pid:cpid);
      let code =
        try
          let eval = make_eval ~worker_dir:wdir in
          let _ =
            work ~name:(Printf.sprintf "w%d" i) ~slot:i ~socket ~dir:wdir spec
              ~eval ()
          in
          0
        with
        | Dist_error msg ->
          Printf.eprintf "dist worker %d: %s\n%!" i msg;
          20
        | e ->
          Printf.eprintf "dist worker %d: %s\n%!" i (Printexc.to_string e);
          20
      in
      Obs.Trace.finish ();
      Unix._exit code
    | pid -> pids.(i) <- Some pid
    | exception Unix.Unix_error (_, _, _) -> pids.(i) <- None
  in
  let serial_done = ref false in
  (* in-process last resort: evaluate what is left through the same
     journaled path a worker would use, so resume and bit-identity hold *)
  let serial_fallback st =
    if not !serial_done then begin
      serial_done := true;
      st.st.serial_fallbacks <- st.st.serial_fallbacks + 1;
      Obs.Metrics.incr m_serial;
      let wdir = serial_dir dir in
      mkdir_p wdir;
      let eval = make_eval ~worker_dir:wdir in
      Array.iteri
        (fun h q ->
          st.queues.(h) <- [];
          List.iter
            (fun (s : Shard.t) ->
              let costs = run_shard ~dir:wdir ~spec ~eval s in
              if st.results.(s.Shard.id) = None then begin
                st.results.(s.Shard.id) <- Some costs;
                st.completed <- st.completed + 1
              end)
            q)
        st.queues
    end
  in
  let tick st =
    Array.iteri
      (fun i -> function
        | Some pid -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, _ | (exception Unix.Unix_error (_, _, _)) ->
            pids.(i) <- None;
            if st.completed < st.total && !respawn_budget > 0 then begin
              decr respawn_budget;
              st.st.respawns <- st.st.respawns + 1;
              Obs.Metrics.incr m_respawns;
              spawn i
            end)
        | None -> ())
      pids;
    (* nobody left to do the work: either burn respawn budget bringing a
       worker back, or finish the sweep in this process *)
    if st.completed < st.total && Array.for_all (( = ) None) pids
       && st.conns = []
    then
      if !respawn_budget > 0 then begin
        decr respawn_budget;
        st.st.respawns <- st.st.respawns + 1;
        Obs.Metrics.incr m_respawns;
        spawn 0
      end
      else serial_fallback st
  in
  let stats, costs =
    Obs.span_with ~cat:"dist" "dist.sweep_local"
      ~end_args:(fun ((s : stats), _) ->
        [
          ("workers", Obs.Trace.Int s.workers_seen);
          ("shards", Obs.Trace.Int s.shards_served);
          ("steals", Obs.Trace.Int s.steals);
          ("requeues", Obs.Trace.Int s.requeues);
          ("deaths", Obs.Trace.Int s.worker_deaths);
          ("respawns", Obs.Trace.Int s.respawns);
        ])
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            Array.iteri
              (fun i -> function
                | Some pid ->
                  (try Unix.kill pid Sys.sigkill
                   with Unix.Unix_error (_, _, _) -> ());
                  (try ignore (Unix.waitpid [] pid)
                   with Unix.Unix_error (_, _, _) -> ());
                  pids.(i) <- None
                | None -> ())
              pids)
          (fun () ->
            (* mint (and trace-announce) the run id before the first
               fork: a child forked earlier would inherit — and its
               trace file would announce — whatever run this process
               served last *)
            let run = mint_run spec in
            Obs.Trace.set_run run;
            for i = 0 to workers - 1 do
              spawn i
            done;
            let r =
              serve_core ~listener ~socket ~dir ~homes:workers ?meta ~tick
                ~run spec
            in
            (* the fleet got fin (or EOF); reap everyone before merging
               caches.  A worker that never managed to connect is still
               in its retry loop — give stragglers a short grace, then
               kill: the sweep is already complete *)
            let deadline = Unix.gettimeofday () +. 2.0 in
            let rec reap () =
              Array.iteri
                (fun i -> function
                  | Some pid -> (
                    match Unix.waitpid [ Unix.WNOHANG ] pid with
                    | 0, _ ->
                      if Unix.gettimeofday () > deadline then begin
                        (try Unix.kill pid Sys.sigkill
                         with Unix.Unix_error (_, _, _) -> ());
                        (try ignore (Unix.waitpid [] pid)
                         with Unix.Unix_error (_, _, _) -> ());
                        pids.(i) <- None
                      end
                    | _, _ | (exception Unix.Unix_error (_, _, _)) ->
                      pids.(i) <- None)
                  | None -> ())
                pids;
              if Array.exists (( <> ) None) pids then begin
                Unix.sleepf 0.02;
                reap ()
              end
            in
            reap ();
            r))
  in
  (* fold every worker's <worker_dir>/cache into the primary store; a
     donor too mangled to merge costs warm-start on the next run, not
     correctness *)
  let dirs =
    List.init workers (fun i -> worker_dir ~dir i) @ [ serial_dir dir ]
  in
  Option.iter
    (fun c ->
      List.iter
        (fun wdir ->
          let donor = Filename.concat wdir "cache" in
          if Sys.file_exists donor then
            match Rcache.absorb c donor with
            | a ->
              stats.absorbed <- stats.absorbed + a.Rcache.absorbed;
              stats.absorb_duplicates <-
                stats.absorb_duplicates + a.duplicates;
              stats.absorb_rejected <- stats.absorb_rejected + a.rejected
            | exception Dlog.Error msg ->
              Printf.eprintf
                "dist: skipping unmergeable worker cache %s: %s\n%!" donor
                msg)
        dirs)
    cache;
  (stats, costs)

(* ------------------------------------------------------------------ *)
(* cold reads: reconstruct the run view from the directory alone

   `miracc sweep-status` and `trace-merge` must work with no coordinator
   alive — on a finished run, a crashed one, or one still in flight in
   another process.  Everything below is read-only. *)

type manifest = {
  m_run : string;
  m_job : string;
  m_n : int;
  m_chunk_size : int;
  m_plan : Shard.t array;
}

(* the manifest, refused whole unless it parses whole and maps as many
   shards as it names: a torn one must never read as a smaller run *)
let read_manifest ~path =
  let open Obs.Json in
  let manifest m =
    let shard v =
      { Shard.id = to_int (field "id" v); lo = to_int (field "lo" v);
        hi = to_int (field "hi" v) }
    in
    let plan = Array.of_list (List.map shard (to_list (field "shard_map" m))) in
    if Array.length plan <> to_int (field "shards" m) then
      raise (Error "shard map does not match the shard count");
    {
      m_run = (match mem "run" m with Some (Str r) -> r | _ -> "");
      m_job = to_str (field "job" m);
      m_n = to_int (field "n" m);
      m_chunk_size = to_int (field "chunk_size" m);
      m_plan = plan;
    }
  in
  match manifest (parse (read_file path)) with
  | m -> Some m
  | exception (Sys_error _ | Error _) -> None

let survey ~dir =
  match read_manifest ~path:(Filename.concat dir "manifest.json") with
  | None -> None
  | Some m ->
    let scans =
      scan_worker_journals ~dir ~job:m.m_job ~chunk_size:m.m_chunk_size m.m_plan
    in
    (* the coordinator-only facts (orchestration counts, elapsed time,
       per-shard grant timings) are not recoverable from journals; lift
       them from the live rollup the coordinator left behind, if any *)
    let rollup =
      try Obs.Json.(parse (read_file (Filename.concat dir "rollup.json")))
      with Sys_error _ | Obs.Json.Error _ -> Obs.Json.Null
    in
    let lift conv default path =
      try conv (List.fold_left (fun v k -> Obs.Json.field k v) rollup path)
      with Obs.Json.Error _ -> default
    in
    let rint k = lift Obs.Json.to_int 0 [ "coordinator"; k ] in
    let rollup_shards =
      let shard s =
        Obs.Json.
          ( to_int (field "shard" s),
            (to_str (field "worker" s), to_float (field "secs" s)) )
      in
      lift (fun v -> List.map shard (Obs.Json.to_list v)) [] [ "shards" ]
    in
    let shards =
      Array.to_list
        (Array.mapi
           (fun i (s : Shard.t) ->
             let scan = scans.(i) in
             let total =
               (s.Shard.hi - s.Shard.lo + m.m_chunk_size - 1) / m.m_chunk_size
             in
             let logged = List.assoc_opt s.Shard.id rollup_shards in
             {
               Obs.Rollup.shard = s.Shard.id;
               worker =
                 (if scan.sworker <> "" then scan.sworker
                  else match logged with Some (w, _) -> w | None -> "");
               chunks_total = total;
               chunks_done = min scan.sdone total;
               torn = scan.storn;
               secs = (match logged with Some (_, t) -> t | None -> 0.0);
             })
           m.m_plan)
    in
    Some
      {
        Obs.Rollup.run = m.m_run;
        job = m.m_job;
        n = m.m_n;
        chunk_size = m.m_chunk_size;
        elapsed_s = lift Obs.Json.to_float 0.0 [ "elapsed_s" ];
        workers_seen = rint "workers_seen";
        shards_served = rint "shards_served";
        steals = rint "steals";
        requeues = rint "requeues";
        worker_deaths = rint "worker_deaths";
        respawns = rint "respawns";
        serial_fallbacks = rint "serial_fallbacks";
        absorbed = rint "absorbed";
        absorb_duplicates = rint "absorb_duplicates";
        absorb_rejected = rint "absorb_rejected";
        shards;
        metrics_docs = worker_metrics_docs ~dir;
      }

let trace_sources ~dir =
  let json_traces d =
    match Sys.readdir d with
    | exception Sys_error _ -> []
    | arr ->
      Array.to_list arr
      |> List.filter (fun f ->
             String.starts_with ~prefix:"trace" f
             && Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat d)
  in
  let label base = function
    | 0 -> base
    | k -> Printf.sprintf "%s+%d" base k
  in
  let coord =
    List.mapi (fun k p -> (label "coordinator" k, p)) (json_traces dir)
  in
  let wroot = Filename.concat dir "workers" in
  let workers =
    List.concat_map
      (fun w ->
        List.mapi
          (fun k p -> (label w k, p))
          (json_traces (Filename.concat wroot w)))
      (worker_subdirs dir)
  in
  coord @ workers
