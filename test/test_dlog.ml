(* The durable log under every store (Engine.Dlog), through each store's
   public API:
   - a torn append loses only the entry it tore, in both stores;
   - a journal scrub is atomic under the compact-crash fault point;
   - one crash-consistency table of damage cases run over every store
     (Journal joins the cases that apply to an unlocked, absorb-free log);
   - a format pin: results.log v3, store.log v2 and journal v2 bytes
     spelled out here open clean, and are what the stores write. *)

module Rcache = Engine.Rcache
module Tstore = Engine.Tstore
module Journal = Engine.Journal
module Faults = Engine.Faults
module Mtrace = Mach.Mtrace

let fuel = Mach.Sim.default_fuel

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlog-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let append_file path s =
  let oc = open_out_gen [ Open_append; Open_wronly; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let size path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* the formats, spelled out *)

let md5 s = Digest.to_hex (Digest.string s)
let sum8 payload = String.sub (md5 payload) 0 8

(* a sealed line: results.log v3 entries and journal v2 chunks *)
let line payload = sum8 payload ^ "|" ^ payload ^ "\n"

(* a store.log v2 blob: its checksum covers the key and the payload *)
let blob key payload =
  Printf.sprintf "\nTSE1|%s|%s|%d\n%s\n" (sum8 (key ^ payload)) key
    (String.length payload) payload

(* Every store holds entries (id, variant), whose value is [v id variant]:
   two variants of one id are two values under one key. *)
let v id variant = (10 * id) + variant

let digest = String.make 32 'a'

let measured v =
  Rcache.Measured
    { ir_digest = digest; cycles = v; code_size = 1; counters = [| v |] }

let traces = Hashtbl.create 16

let trace v =
  match Hashtbl.find_opt traces v with
  | Some tr -> tr
  | None ->
    let src =
      Printf.sprintf
        "fn main() -> int { var s: int = 0; for i = 0 to 40 { s = s + i; } \
         return %d; }"
        v
    in
    let tr =
      Mtrace.generate_program ~fuel (Mira.Lower.compile_source_exn src)
    in
    Hashtbl.replace traces v tr;
    tr

let trace_value (tr : Mtrace.t) =
  match tr.Mtrace.ret with
  | Mira.Interp.VInt v -> v
  | _ -> Alcotest.fail "stored trace has no integer result"

(* ------------------------------------------------------------------ *)
(* each store behind one shape *)

type store = {
  name : string;
  log : string -> string; (* the log file of the store kept at a dir *)
  magic : string;
  bytes : int * int -> string; (* one entry as the format spells it *)
  write : string -> (int * int) list -> unit; (* one session of adds *)
  read : string -> int list -> int * int list;
      (* one session: quarantined, values found for the ids probed *)
  locked : locked option;
}

(* what a store kept in a locked directory adds *)
and locked = {
  lock : string;
  opens : string -> unit;
  stale : string -> int; (* stale locks broken by one open *)
  compact : string -> unit;
  absorb : string -> string -> int * int * int;
  refused : exn -> bool;
}

let rcache =
  let key id = Printf.sprintf "k%d" id in
  let session dir f =
    let c = Rcache.open_dir dir in
    Fun.protect ~finally:(fun () -> Rcache.close c) (fun () -> f c)
  in
  {
    name = "rcache";
    log = (fun dir -> Filename.concat dir "results.log");
    magic = "mira-rescache 3";
    bytes =
      (fun (id, var) ->
        let v = v id var in
        line (Printf.sprintf "ok|k%d|%s|%d|1|%d" id digest v v));
    write =
      (fun dir es ->
        session dir (fun c ->
            List.iter
              (fun (id, var) -> Rcache.add c (key id) (measured (v id var)))
              es));
    read =
      (fun dir ids ->
        session dir (fun c ->
            ( Rcache.quarantined c,
              List.filter_map
                (fun id ->
                  match Rcache.find c (key id) with
                  | Some (Rcache.Measured { cycles; _ }) -> Some cycles
                  | _ -> None)
                ids )));
    locked =
      Some
        {
          lock = "cache.lock";
          opens = (fun dir -> session dir ignore);
          stale = (fun dir -> session dir Rcache.stale_locks_broken);
          compact = (fun dir -> session dir Rcache.compact);
          absorb =
            (fun dir donor ->
              session dir (fun c ->
                  let s = Rcache.absorb c donor in
                  (s.Rcache.absorbed, s.duplicates, s.rejected)));
          refused = (function Rcache.Cache_error _ -> true | _ -> false);
        };
  }

let tstore =
  let ir id = Printf.sprintf "p%d" id in
  let session dir f =
    let ts = Tstore.open_dir dir in
    Fun.protect ~finally:(fun () -> Tstore.close ts) (fun () -> f ts)
  in
  {
    name = "tstore";
    log = (fun dir -> Filename.concat dir "store.log");
    magic = "mira-tstore 2";
    bytes =
      (fun (id, var) ->
        blob
          (md5 (ir id ^ "\x00" ^ string_of_int fuel))
          (Mtrace.encode (trace (v id var))));
    write =
      (fun dir es ->
        session dir (fun ts ->
            List.iter
              (fun (id, var) ->
                Tstore.add ts ~ir_digest:(ir id) ~fuel (trace (v id var)))
              es));
    read =
      (fun dir ids ->
        session dir (fun ts ->
            ( Tstore.quarantined ts,
              List.filter_map
                (fun id ->
                  Option.map trace_value
                    (Tstore.find ts ~ir_digest:(ir id) ~fuel))
                ids )));
    locked =
      Some
        {
          lock = "tstore.lock";
          opens = (fun dir -> session dir ignore);
          stale = (fun dir -> session dir Tstore.stale_locks_broken);
          compact = (fun dir -> session dir Tstore.compact);
          absorb =
            (fun dir donor ->
              session dir (fun ts ->
                  let s = Tstore.absorb ts donor in
                  (s.Tstore.absorbed, s.duplicates, s.rejected)));
          refused = (function Tstore.Store_error _ -> true | _ -> false);
        };
  }

let journal =
  let path dir = Filename.concat dir "sweep.log" in
  let session dir f =
    let j = Journal.open_ ~path:(path dir) ~key:"pin" ~total:4 in
    Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)
  in
  {
    name = "journal";
    log = path;
    magic = "mira-journal 2|pin|4";
    bytes =
      (fun (id, var) ->
        line (Printf.sprintf "chunk|%d|%h" id (float_of_int (v id var))));
    write =
      (fun dir es ->
        session dir (fun j ->
            List.iter
              (fun (id, var) ->
                Journal.record j id [| float_of_int (v id var) |])
              es));
    read =
      (fun dir ids ->
        session dir (fun j ->
            ( Journal.quarantined j,
              List.filter_map
                (fun id ->
                  Option.map
                    (fun costs -> int_of_float costs.(0))
                    (Journal.find j id))
                ids )));
    locked = None;
  }

let stores = [ rcache; tstore; journal ]

let check_read s dir ids ~quarantined ~values label =
  let q, got = s.read dir ids in
  Alcotest.(check int) (label ^ ": quarantined") quarantined q;
  Alcotest.(check (list int)) (label ^ ": entries") values got

(* ------------------------------------------------------------------ *)
(* a torn append loses only the entry it tore *)

let test_torn_spares_next s plan () =
  with_dir @@ fun dir ->
  s.write dir [ (0, 0) ];
  Faults.with_plan (Faults.parse_exn plan) (fun () ->
      s.write dir [ (1, 0); (2, 0); (3, 0) ]);
  check_read s dir [ 0; 1; 2; 3 ] ~quarantined:1
    ~values:[ v 0 0; v 2 0; v 3 0 ]
    "the entry after the tear survives";
  check_read s dir [ 0; 1; 2; 3 ] ~quarantined:0
    ~values:[ v 0 0; v 2 0; v 3 0 ]
    "healed"

(* ------------------------------------------------------------------ *)
(* the journal scrub *)

let fake_costs lo hi =
  Array.init (hi - lo) (fun k -> float_of_int ((lo + k) * 7 mod 13))

let test_journal_scrub_atomic () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "sweep.log" in
  let chunk c =
    line
      (Printf.sprintf "chunk|%d|%s" c
         (String.concat ","
            (List.map (Printf.sprintf "%h")
               (Array.to_list (fake_costs (4 * c) (min 14 (4 * c + 4)))))))
  in
  let torn = chunk 2 in
  (* the header key is the caller's key folded with the chunking *)
  write_file path
    (Printf.sprintf "mira-journal 2|%s|4\n"
       (Digest.to_hex (Digest.string "k\x004\x0014"))
    ^ chunk 0 ^ chunk 1
    ^ String.sub torn 0 (String.length torn / 2));
  let before = read_file path in
  let calls = ref 0 in
  let run () =
    Journal.run ~path ~key:"k" ~chunk_size:4 ~n:14 (fun lo hi ->
        incr calls;
        fake_costs lo hi)
  in
  (match Faults.with_plan (Faults.parse_exn "compact-crash@0") run with
   | _ -> Alcotest.fail "the scrub did not go through the atomic rewrite"
   | exception Faults.Injected _ -> ());
  Alcotest.(check string) "a crashed scrub leaves the journal" before
    (read_file path);
  Alcotest.(check (list string)) "and no temporary file" [ "sweep.log" ]
    (Array.to_list (Sys.readdir dir));
  Alcotest.(check int) "nothing evaluated" 0 !calls;
  let out = run () in
  Alcotest.(check int) "a clean resume evaluates the missing chunks" 2 !calls;
  Alcotest.(check bool) "costs as uninterrupted" true (out = fake_costs 0 14)

(* ------------------------------------------------------------------ *)
(* the crash-consistency table *)

let all3 = [ v 0 0; v 1 0; v 2 0 ]

let torn_tail s dir =
  s.write dir [ (0, 0); (1, 0); (2, 0) ];
  let log = s.log dir in
  Unix.truncate log (size log - 5);
  check_read s dir [ 0; 1; 2 ] ~quarantined:1 ~values:[ v 0 0; v 1 0 ] "torn";
  check_read s dir [ 0; 1; 2 ] ~quarantined:0 ~values:[ v 0 0; v 1 0 ] "healed"

let bit_flip s dir =
  s.write dir [ (0, 0) ];
  let a = size (s.log dir) in
  s.write dir [ (1, 0) ];
  let b = size (s.log dir) in
  s.write dir [ (2, 0) ];
  let bytes = Bytes.of_string (read_file (s.log dir)) in
  let mid = (a + b) / 2 in
  Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 1));
  write_file (s.log dir) (Bytes.to_string bytes);
  check_read s dir [ 0; 1; 2 ] ~quarantined:1 ~values:[ v 0 0; v 2 0 ]
    "flipped"

let torn_header s dir =
  write_file (s.log dir) (String.sub s.magic 0 5);
  check_read s dir [ 0 ] ~quarantined:1 ~values:[] "torn header";
  s.write dir [ (0, 0) ];
  check_read s dir [ 0 ] ~quarantined:0 ~values:[ v 0 0 ] "healed"

let duplicate_key s dir =
  write_file (s.log dir)
    (s.magic ^ "\n" ^ s.bytes (0, 1) ^ s.bytes (1, 1) ^ s.bytes (0, 2));
  check_read s dir [ 0; 1 ] ~quarantined:0 ~values:[ v 0 2; v 1 1 ]
    "last entry wins"

let locked s = Option.get s.locked
let lock_file s dir = Filename.concat dir (locked s).lock

let refused s dir label =
  match (locked s).opens dir with
  | () -> Alcotest.failf "%s: the open must be refused" label
  | exception e when (locked s).refused e -> ()

let alien_header s dir =
  let alien = "my precious data\n" in
  write_file (s.log dir) alien;
  refused s dir "alien header";
  Alcotest.(check string) "alien file untouched" alien (read_file (s.log dir));
  Alcotest.(check bool) "no lock leaked" false
    (Sys.file_exists (lock_file s dir))

let live_lock s dir =
  write_file (lock_file s dir) "1";
  refused s dir "live lock"

let dead_lock s dir =
  write_file (lock_file s dir) "999999999";
  Alcotest.(check int) "stale lock broken" 1 ((locked s).stale dir);
  Alcotest.(check bool) "lock released" false
    (Sys.file_exists (lock_file s dir))

let compact_crash s dir =
  s.write dir [ (0, 0); (1, 0); (2, 0) ];
  let before = read_file (s.log dir) in
  (match
     Faults.with_plan (Faults.parse_exn "compact-crash@0") (fun () ->
         (locked s).compact dir)
   with
   | () -> Alcotest.fail "compact-crash did not fire"
   | exception Faults.Injected _ -> ());
  Alcotest.(check string) "log intact" before (read_file (s.log dir));
  check_read s dir [ 0; 1; 2 ] ~quarantined:0 ~values:all3 "after the crash"

let donor dir =
  let d = Filename.concat dir "donor" in
  Sys.mkdir d 0o755;
  d

let absorb_garbage s dir =
  let d = donor dir in
  s.write d [ (0, 0); (1, 0) ];
  append_file (s.log d) "garbage line with no checksum\n";
  s.write dir [ (1, 0); (2, 0) ];
  let absorbed, duplicates, rejected = (locked s).absorb dir d in
  Alcotest.(check (list int)) "absorbed, duplicates, rejected" [ 1; 1; 1 ]
    [ absorbed; duplicates; rejected ];
  check_read s dir [ 0; 1; 2 ] ~quarantined:0 ~values:all3 "merged"

let absorb_live s dir =
  let d = donor dir in
  s.write d [ (0, 0) ];
  write_file (lock_file s d) "1";
  match (locked s).absorb dir d with
  | _ -> Alcotest.fail "a live donor must be refused"
  | exception e when (locked s).refused e -> ()

let cases =
  [
    ("torn tail", torn_tail, false);
    ("bit flip mid-entry", bit_flip, false);
    ("duplicate key: last wins", duplicate_key, false);
    ("torn header", torn_header, true);
    ("alien header refused", alien_header, true);
    ("live lock refused", live_lock, true);
    ("dead owner's lock broken", dead_lock, true);
    ("compact-crash leaves the log", compact_crash, true);
    ("absorb: garbage rejected", absorb_garbage, true);
    ("absorb: live donor refused", absorb_live, true);
  ]

let table =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun (name, case, needs_lock) ->
          if needs_lock && s.locked = None then None
          else
            Some
              (Alcotest.test_case (s.name ^ ": " ^ name) `Quick (fun () ->
                   with_dir (case s))))
        cases)
    stores

(* ------------------------------------------------------------------ *)
(* the format pin *)

let test_pin_reads s () =
  with_dir @@ fun dir ->
  write_file (s.log dir)
    (s.magic ^ "\n" ^ s.bytes (0, 0) ^ s.bytes (1, 0) ^ s.bytes (2, 0));
  check_read s dir [ 0; 1; 2 ] ~quarantined:0 ~values:all3 "hand-built"

let test_pin_writes s () =
  with_dir @@ fun dir ->
  s.write dir [ (0, 0); (1, 0) ];
  s.write dir [ (2, 0) ];
  Alcotest.(check string) "written bytes"
    (s.magic ^ "\n" ^ s.bytes (0, 0) ^ s.bytes (1, 0) ^ s.bytes (2, 0))
    (read_file (s.log dir))

let pin =
  List.concat_map
    (fun s ->
      [
        Alcotest.test_case (s.name ^ ": hand-built log opens clean") `Quick
          (test_pin_reads s);
        Alcotest.test_case (s.name ^ ": writes the spelled bytes") `Quick
          (test_pin_writes s);
      ])
    stores

let () =
  Random.self_init ();
  Alcotest.run "dlog"
    [
      ( "torn append",
        [
          Alcotest.test_case "rcache: the next entry survives" `Quick
            (test_torn_spares_next rcache "torn-append@0");
          Alcotest.test_case "tstore: the next entry survives" `Quick
            (test_torn_spares_next tstore "tstore-write@0");
        ] );
      ( "journal",
        [
          Alcotest.test_case "scrub is atomic under compact-crash" `Quick
            test_journal_scrub_atomic;
        ] );
      ("crash table", table);
      ("format pin", pin);
    ]
