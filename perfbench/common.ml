(* Helpers shared by the three workloads: the run context, timers,
   order statistics, the process's peak resident set and a minimal JSON
   writer for the run record.  The workloads wrap each public call they
   make in an Obs span whose category names the call's layer. *)

type ctx = {
  seconds : int;
  workers : int;
  kb_seed : int;
  sweep_seed : int;
  seed : int;  (* the order operations are sent in *)
  search_seed : int;  (* the focused-search seed (tune) *)
  work : string;  (* scratch directory for stores, removed at exit *)
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Collect all garbage before a timed phase, outside its time: each phase
   then starts from the same heap, instead of paying at random for the
   marking and sweeping the phases before it left behind *)
let settle () = Gc.full_major ()

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* a phase's time from passes over the same slots (operations or
   batches): each slot's fastest pass, summed.  Noise on a shared host
   only ever adds time, often to every slot of a pass at once for
   seconds on end; the fastest pass of a slot needs only one pass to have
   escaped it, where a median needs most of them *)
let slot_min_sum = function
  | [] -> nan
  | p :: _ as passes ->
    let s = ref 0.0 in
    for j = 0 to Array.length p - 1 do
      s := !s +. List.fold_left (fun m a -> Float.min m a.(j)) infinity passes
    done;
    !s

let sum_array = Array.fold_left ( +. ) 0.0

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs
       /. float_of_int (max 1 (List.length xs)))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let mean xs =
  List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* VmHWM of this process, in MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* CPU seconds of this process and its reaped children *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* seconds the hypervisor took from all of the host's CPUs (the steal
   column of /proc/stat, in 1/100 s); nan where it cannot be read *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        match
          Scanf.sscanf (input_line ic) "cpu %d %d %d %d %d %d %d %d"
            (fun _ _ _ _ _ _ _ st -> st)
        with
        | st -> float_of_int st /. 100.0
        | exception _ -> nan)

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* a fresh, empty directory under the scratch root *)
let fresh_dir ctx name =
  let d = Filename.concat ctx.work name in
  remove_tree d;
  mkdir_p d;
  d

let compile_exn src =
  match Mira.Lower.compile_source src with
  | Ok p -> p
  | Error e -> failwith ("suite source does not compile: " ^ e)

let config = Mach.Config.c6713_like
let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* ------------------------------------------------------------------ *)
(* JSON *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_buf b = function
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Str s -> add_string b s
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        to_buf b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        add_string b k;
        Buffer.add_string b ": ";
        to_buf b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  to_buf b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* what a workload's timed region hands back *)

type stats = {
  cold_ops : int;
  cold : float array list;
      (* seconds of each slot of the cold phase, one array per pass; the
         slots of all passes add up to the phase *)
  warm_ops : int;
  warm : float array list;  (* the same for the warm phase *)
  attempted : int;  (* operations run in both phases, repetitions included *)
  det : (string * json) list;
      (* deterministic values: equal across runs of one commit *)
  extra : (string * json) list;  (* further end-to-end figures *)
  lost : int;  (* operations lost to crashed, timed-out or poisoned tasks *)
}

type run = {
  stats : stats;
  layer_counts : Fold.t -> (string * float) list;
      (* per-layer values the workload knows beyond the fold *)
  check : unit -> int;  (* output oracles: number of mismatches *)
}
