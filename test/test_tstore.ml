(* The persistent trace store: codec round-trips (bit-exact, compact),
   cross-process persistence (add / close / reopen / find), torn-write
   quarantine and self-healing, absorb of another process's store, the
   write-through tier under Tcache, and Engine.Grid's pricing: bit-identical
   to the serial grid, in the calling process, with no worker forked. *)

module Mtrace = Mach.Mtrace
module Replay = Mach.Replay
module Config = Mach.Config
module Flatsim = Mach.Flatsim
module Tstore = Engine.Tstore
module Tcache = Engine.Tcache
module Faults = Engine.Faults

let fuel = Mach.Sim.default_fuel

let tmp_dir prefix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let compile src =
  match Mira.Lower.compile_source src with
  | Ok p -> p
  | Error e -> Alcotest.failf "test program does not compile: %s" e

let trap_program =
  {|fn main() -> int {
      var s: int = 0;
      for i = 0 to 10 { s = s + i; }
      print(s);
      return 1 / (s - s);
    }|}

(* bit-identity of two simulator results; Stdlib.compare so floats match
   by bit-pattern semantics (NaN = NaN) *)
let same (a : Flatsim.result) (b : Flatsim.result) =
  Stdlib.compare
    ( a.Flatsim.cycles, a.Flatsim.counters, a.Flatsim.ret, a.Flatsim.output,
      a.Flatsim.steps )
    ( b.Flatsim.cycles, b.Flatsim.counters, b.Flatsim.ret, b.Flatsim.output,
      b.Flatsim.steps )
  = 0

(* ------------------------------------------------------------------ *)
(* the codec *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* Round-trip over the whole workload suite plus a trapping and an
   exhausted trace: decode (encode tr) is bit-exact, a replay of the
   decoded trace is bit-identical to a replay of the original on every
   preset config, and the encoding stays compact (< 4 bytes per stream
   word — the acceptance bound; the suite averages about 2.2). *)
let test_codec_round_trip () =
  let check_one name (tr : Mtrace.t) =
    let s = Mtrace.encode tr in
    match Mtrace.decode s with
    | Error m -> Alcotest.failf "%s: decode failed: %s" name m
    | Ok tr' ->
      Alcotest.(check bool) (name ^ ": bit-exact") true (Mtrace.equal tr tr');
      (* the < 4 B/word bound is an amortized claim: fixed metadata
         (outcome, return value, signature table) dominates tiny traces,
         so hold real workload traces to it, not the 5-word programs *)
      if tr.Mtrace.n >= 1000 then
        Alcotest.(check bool)
          (Printf.sprintf "%s: compact (%d bytes / %d words)" name
             (String.length s) tr.Mtrace.n)
          true
          (String.length s < 4 * tr.Mtrace.n);
      List.iter
        (fun config ->
          let run tr () = Replay.run ~config tr in
          match (run tr (), run tr' ()) with
          | a, b ->
            Alcotest.(check bool)
              (Printf.sprintf "%s on %s: replay of decoded trace" name
                 config.Config.name)
              true (same a b)
          | exception Mira.Interp.Trap m -> (
            match run tr' () with
            | _ -> Alcotest.failf "%s: decoded trace does not trap" name
            | exception Mira.Interp.Trap m' ->
              Alcotest.(check string) (name ^ ": trap message") m m')
          | exception Mira.Interp.Out_of_fuel -> (
            match run tr' () with
            | _ -> Alcotest.failf "%s: decoded trace not exhausted" name
            | exception Mira.Interp.Out_of_fuel -> ()))
        Config.all
  in
  List.iter
    (fun (w : Workloads.t) ->
      check_one w.Workloads.name
        (Mtrace.generate ~fuel (Mira.Decode.decode (Workloads.program w))))
    Workloads.all;
  check_one "trap" (Mtrace.generate_program ~fuel (compile trap_program));
  check_one "exhausted"
    (Mtrace.generate_program ~fuel:10 (compile trap_program))

let test_codec_rejects_garbage () =
  let tr =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 7; }|})
  in
  let s = Mtrace.encode tr in
  Alcotest.(check bool) "empty" true (Result.is_error (Mtrace.decode ""));
  Alcotest.(check bool)
    "bad version" true
    (Result.is_error (Mtrace.decode ("\xff" ^ String.sub s 1 (String.length s - 1))));
  Alcotest.(check bool)
    "truncated" true
    (Result.is_error (Mtrace.decode (String.sub s 0 (String.length s / 2))));
  Alcotest.(check bool)
    "trailing bytes" true
    (Result.is_error (Mtrace.decode (s ^ "\x00")));
  (* length fields that once reached an allocation or String.sub: each
     must come back as an Error, never an exception *)
  let version = String.make 1 (Char.chr Mtrace.codec_version) in
  let varint v =
    let b = Buffer.create 10 in
    let rec go v =
      if v < 0x80 then Buffer.add_char b (Char.chr v)
      else (
        Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
        go (v lsr 7))
    in
    go v;
    Buffer.contents b
  in
  (* a finished trace's head: outcome, output "", steps 0, ret VUndef *)
  let finished = version ^ "\x00\x00\x00\x00" in
  let negative = String.make 8 '\xff' ^ "\x7f" in
  let rejects (name, payload) =
    match Mtrace.decode payload with
    | r -> Alcotest.(check bool) name true (Result.is_error r)
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  List.iter rejects
    [
      ("event count 2^40", finished ^ varint (1 lsl 40));
      ("negative nine-byte varint", version ^ "\x00\x00" ^ negative);
      ("signature count 2^40", finished ^ "\x00" ^ varint (1 lsl 40));
      ( "trap message length near max_int",
        version ^ "\x01" ^ varint (max_int - 3) );
    ];
  (* Whole payloads, as a checksum-valid store entry would hold them,
     each breaking one bound on an index the pricing reads.  The control
     differs from each only in the field the rule names, and decodes. *)
  let payload ?(words = "\x01\x02") ?(runs = "\x01\x00\x01\x01")
      ?(classes = varint 1 ^ varint Mira.Decode.cls_jump ^ "\x01")
      ?(bank = Mach.Counters.count) () =
    (* one memory word at address 0, one signature (dst 0, no uses),
       one run of it, one jump, and the bank *)
    finished ^ words ^ "\x01\x00\x00" ^ runs ^ classes ^ varint bank
    ^ String.make bank '\x00'
  in
  (match Mtrace.decode (payload ()) with
  | Ok tr ->
    List.iter
      (fun config -> ignore (Replay.run ~config tr))
      Config.all
  | Error m -> Alcotest.failf "control payload: %s" m);
  (* the error must name the broken rule, not some later symptom *)
  List.iter
    (fun (name, payload, rule) ->
      match Mtrace.decode payload with
      | Ok _ -> Alcotest.failf "%s: decoded" name
      | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %S" name m rule)
          true
          (contains m rule)
      | exception e ->
        Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    [
      ( "run past the signature table",
        payload ~runs:"\x01\x00\x02\x01" (),
        "leaves the 1 signatures" );
      ( "run starting past the table",
        payload ~runs:"\x01\x02\x00\x01" (),
        "leaves the 1 signatures" );
      ( "latency class cls_count",
        payload ~classes:(varint 1 ^ varint Mira.Decode.cls_count ^ "\x01") (),
        "latency class" );
      ( "negative run count",
        payload ~runs:("\x01\x00\x01" ^ negative) (),
        "negative varint" );
      ( "negative class count",
        payload ~classes:(varint 1 ^ varint 0 ^ negative) (),
        "negative varint" );
      ("stream tag 0", payload ~words:"\x01\x00" (), "stream tag 0");
      ("stream tag 1", payload ~words:"\x01\x01" (), "stream tag 1");
      ( "short counter bank",
        payload ~bank:(Mach.Counters.count - 1) (),
        "counters" );
    ]

(* ------------------------------------------------------------------ *)
(* persistence across a process boundary (open / close / reopen) *)

let test_store_round_trip () =
  let dir = tmp_dir "tstore" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = Workloads.program (List.hd Workloads.all) in
  let tr = Mtrace.generate ~fuel (Mira.Decode.decode p) in
  let d = Engine.Pctrie.digest p in
  let ts = Tstore.open_dir dir in
  Alcotest.(check int) "fresh store is empty" 0 (Tstore.entries ts);
  Alcotest.(check bool) "miss before add" true
    (Tstore.find ts ~ir_digest:d ~fuel = None);
  Tstore.add ts ~ir_digest:d ~fuel tr;
  Tstore.add ts ~ir_digest:d ~fuel tr (* idempotent *);
  Alcotest.(check int) "one entry" 1 (Tstore.entries ts);
  Tstore.close ts;
  (* a new handle — the cross-run path: everything must come back from
     disk, bit for bit *)
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  Alcotest.(check int) "entry survived the reopen" 1 (Tstore.entries ts);
  Alcotest.(check int) "nothing quarantined" 0 (Tstore.quarantined ts);
  Alcotest.(check bool) "fuel is part of the key" true
    (Tstore.find ts ~ir_digest:d ~fuel:(fuel - 1) = None);
  match Tstore.find ts ~ir_digest:d ~fuel with
  | None -> Alcotest.fail "stored trace not found after reopen"
  | Some tr' ->
    Alcotest.(check bool) "bit-exact after reopen" true (Mtrace.equal tr tr');
    List.iter
      (fun config ->
        Alcotest.(check bool)
          (config.Config.name ^ ": replay from the store")
          true
          (same (Replay.run ~config tr) (Replay.run ~config tr')))
      Config.all

(* A store written when globals were lowered to full length holds the
   trace under the padded copy's digest.  The trimmed program's digest
   must miss it cleanly, and its own trace replays to the same result. *)
let test_full_length_key_misses () =
  let dir = tmp_dir "tstore-full-length" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = Workloads.program Workloads.adpcm in
  let old = Padded.program p in
  let ts = Tstore.open_dir dir in
  Tstore.add ts ~ir_digest:(Engine.Pctrie.digest old) ~fuel
    (Mtrace.generate ~fuel (Mira.Decode.decode old));
  Tstore.close ts;
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  Alcotest.(check bool) "trimmed digest misses" true
    (Tstore.find ts ~ir_digest:(Engine.Pctrie.digest p) ~fuel = None);
  Alcotest.(check int) "nothing quarantined" 0 (Tstore.quarantined ts);
  match Tstore.find ts ~ir_digest:(Engine.Pctrie.digest old) ~fuel with
  | None -> Alcotest.fail "full-length entry lost"
  | Some stored ->
    let tr = Mtrace.generate ~fuel (Mira.Decode.decode p) in
    List.iter
      (fun config ->
        Alcotest.(check bool)
          (config.Config.name ^ ": same replay as the stored trace")
          true
          (same (Replay.run ~config stored) (Replay.run ~config tr)))
      Config.all

(* ------------------------------------------------------------------ *)
(* store format 2 *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let legacy_program =
  {|global g: int[8] = {3, 1, 4, 1, 5, 9, 2, 6};
fn f(x: int) -> int { return x * 3; }
fn main() -> int {
  var s: int = 0;
  for i = 0 to 8 { s = s + f(g[i]); }
  return s;
}|}

(* A format-1 store.log, as the format-1 build wrote it: [legacy_program]
   traced at the default fuel and at fuel 1000, under header
   "mira-tstore 1", payload-only checksums and codec version 1. *)
let legacy_log =
  let hex =
    String.concat ""
      [
        "6d6972612d7473746f726520310a0a545345317c31666134613066307c633362";
        "34663365646238626265323864643832316162623538323632323630627c3135";
        "300a01451839e83f0b8280400d25399010018c100382010d25399010018c1003";
        "82010d25399010018c100382010d25399010018c100382010d25399010018c10";
        "0382010d25399010018c100382010d25399010018c100382010d25399010018c";
        "100701080008080208080408080608080801020e000600070802010307143d00";
        "0800090800002d08000800000000000000000001ba0100580a0a545345317c31";
        "666134613066307c386539636530636535373861616631633162386461333266";
        "31346532656464627c3135300a01451839e83f0b8280400d25399010018c1003";
        "82010d25399010018c100382010d25399010018c100382010d25399010018c10";
        "0382010d25399010018c100382010d25399010018c100382010d25399010018c";
        "100382010d25399010018c100701080008080208080408080608080801020e00";
        "0600070802010307143d000800090800002d08000800000000000000000001ba";
        "0100580a";
      ]
  in
  String.init (String.length hex / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))

(* A format-1 log opens with every entry quarantined and is rewritten in
   format 2; its program prices as the flat engine does after one
   regeneration, and the next open is clean. *)
let test_format1_log_upgrades () =
  let dir = tmp_dir "tstore-format1" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Sys.mkdir dir 0o755;
  let log = Filename.concat dir "store.log" in
  write_file log legacy_log;
  let p = compile legacy_program in
  let ir_digest = Engine.Pctrie.digest p in
  (* the log files the first entry under this program's key *)
  Alcotest.(check bool) "the log holds this program's key" true
    (contains legacy_log
       (Digest.to_hex (Digest.string (ir_digest ^ "\x00" ^ string_of_int fuel))));
  let ts = Tstore.open_dir dir in
  Alcotest.(check int) "every entry quarantined" 2 (Tstore.quarantined ts);
  Alcotest.(check int) "no entry kept" 0 (Tstore.entries ts);
  Alcotest.(check string) "rewritten in format 2" "mira-tstore 2\n"
    (read_file log);
  let gens = ref 0 in
  let tr =
    Tcache.find_or_generate (Tcache.create ~store:ts ()) ~ir_digest ~fuel
      (fun () ->
        incr gens;
        Mtrace.generate_program ~fuel p)
  in
  Alcotest.(check int) "one regeneration" 1 !gens;
  let configs = Array.of_list Config.all in
  Array.iteri
    (fun i (r : Mach.Sim.result) ->
      Alcotest.(check bool)
        (configs.(i).Config.name ^ ": priced as the flat engine")
        true
        (same r
           (Mach.Sim.run ~engine:Mach.Sim.Flat ~config:configs.(i) ~fuel p)))
    (Engine.Grid.replay_grid ~configs tr);
  Tstore.close ts;
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  Alcotest.(check int) "the next open is clean" 0 (Tstore.quarantined ts);
  match Tstore.find ts ~ir_digest ~fuel with
  | Some tr' -> Alcotest.(check bool) "stored in format 2" true (Mtrace.equal tr tr')
  | None -> Alcotest.fail "the regenerated trace was not stored"

(* A blob's checksum covers its key: damage to any byte of a marker's
   key quarantines that entry, where a payload-only checksum would have
   filed it under another key. *)
let test_key_damage_quarantines () =
  let dir = tmp_dir "tstore-key" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let trace v =
    Mtrace.generate_program ~fuel
      (compile (Printf.sprintf {|fn main() -> int { return %d; }|} v))
  in
  let a = trace 1 and b = trace 2 in
  let ts = Tstore.open_dir dir in
  Tstore.add ts ~ir_digest:"a" ~fuel a;
  Tstore.add ts ~ir_digest:"b" ~fuel b;
  Tstore.close ts;
  let log = Filename.concat dir "store.log" in
  let clean = read_file log in
  (* the first marker is "TSE1|<sum8>|<key32>|..." *)
  let key_at =
    let rec find i = if String.sub clean i 5 = "TSE1|" then i + 14 else find (i + 1) in
    find 0
  in
  let damaged = ref 0 in
  for i = key_at to key_at + 31 do
    let c = clean.[i] in
    (* a bit flip, and a change to another hex digit, which keeps the
       marker well-formed *)
    List.iter
      (fun c' ->
        let bytes = Bytes.of_string clean in
        Bytes.set bytes i c';
        write_file log (Bytes.to_string bytes);
        let ts = Tstore.open_dir dir in
        Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
        incr damaged;
        let what = Printf.sprintf "key byte %d -> %C" (i - key_at) c' in
        Alcotest.(check int) (what ^ ": quarantined") 1 (Tstore.quarantined ts);
        Alcotest.(check int) (what ^ ": one entry left") 1 (Tstore.entries ts);
        Alcotest.(check bool) (what ^ ": its entry misses") true
          (Tstore.find ts ~ir_digest:"a" ~fuel = None);
        Alcotest.(check bool) (what ^ ": the other entry reads back") true
          (match Tstore.find ts ~ir_digest:"b" ~fuel with
          | Some tr -> Mtrace.equal tr b
          | None -> false))
      [ Char.chr (Char.code c lxor 1); (if c = '0' then '1' else '0') ]
  done;
  Alcotest.(check int) "every key byte damaged twice" 64 !damaged

(* ------------------------------------------------------------------ *)
(* torn writes: quarantine, never a crash, and self-healing *)

let test_torn_write_quarantine () =
  let dir = tmp_dir "tstore-torn" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let tr1 =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 1; }|})
  in
  let tr2 =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 2; }|})
  in
  let ts = Tstore.open_dir dir in
  Tstore.add ts ~ir_digest:"a" ~fuel tr1;
  (* the second append is torn mid-payload, as a crash would leave it
     (occurrences are 0-based: @0 tears the first append in the plan) *)
  Faults.with_plan (Faults.parse_exn "tstore-write@0") (fun () ->
      Tstore.add ts ~ir_digest:"b" ~fuel tr2);
  Alcotest.(check bool) "torn entry not indexed" true
    (not (Tstore.mem ts ~ir_digest:"b" ~fuel));
  Tstore.close ts;
  (* reopen: the intact entry is served, the torn one is quarantined and
     scrubbed from the log (self-heal), and a re-add sticks *)
  let ts = Tstore.open_dir dir in
  Alcotest.(check int) "torn entry quarantined" 1 (Tstore.quarantined ts);
  Alcotest.(check int) "intact entry survives" 1 (Tstore.entries ts);
  (match Tstore.find ts ~ir_digest:"a" ~fuel with
  | Some tr -> Alcotest.(check bool) "intact payload" true (Mtrace.equal tr1 tr)
  | None -> Alcotest.fail "intact entry lost to the tear");
  Tstore.add ts ~ir_digest:"b" ~fuel tr2;
  Tstore.close ts;
  (* the heal was written out: a third open sees a clean two-entry log *)
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  Alcotest.(check int) "log healed" 0 (Tstore.quarantined ts);
  Alcotest.(check int) "both entries" 2 (Tstore.entries ts);
  match Tstore.find ts ~ir_digest:"b" ~fuel with
  | Some tr -> Alcotest.(check bool) "re-added payload" true (Mtrace.equal tr2 tr)
  | None -> Alcotest.fail "re-added entry lost"

(* ------------------------------------------------------------------ *)
(* absorb: merging a store another process filled *)

let test_absorb () =
  let dir = tmp_dir "tstore-main" and wdir = tmp_dir "tstore-worker" in
  Fun.protect ~finally:(fun () -> rm_rf dir; rm_rf wdir) @@ fun () ->
  let tr1 =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 1; }|})
  in
  let tr2 =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 2; }|})
  in
  let w = Tstore.open_dir wdir in
  Tstore.add w ~ir_digest:"shared" ~fuel tr1;
  Tstore.add w ~ir_digest:"fresh" ~fuel tr2;
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  Tstore.add ts ~ir_digest:"shared" ~fuel tr1;
  Tstore.close w;
  (* a donor locked by a live foreign process must be refused, not
     merged (pid 1 is always alive); a dead owner's lock — the usual
     crashed-worker case — does not block *)
  let wlock = Filename.concat wdir "tstore.lock" in
  let oc = open_out wlock in
  output_string oc "1";
  close_out oc;
  (match Tstore.absorb ts wdir with
  | _ -> Alcotest.fail "absorbing a live store must raise"
  | exception Tstore.Store_error _ -> ());
  Sys.remove wlock;
  let st = Tstore.absorb ts wdir in
  Alcotest.(check int) "absorbed" 1 st.Tstore.absorbed;
  Alcotest.(check int) "duplicates" 1 st.Tstore.duplicates;
  Alcotest.(check int) "rejected" 0 st.Tstore.rejected;
  Alcotest.(check int) "merged size" 2 (Tstore.entries ts);
  (* a missing donor is an empty merge, not an error *)
  let st = Tstore.absorb ts (Filename.concat wdir "nope") in
  Alcotest.(check int) "missing donor absorbs nothing" 0 st.Tstore.absorbed;
  match Tstore.find ts ~ir_digest:"fresh" ~fuel with
  | Some tr -> Alcotest.(check bool) "merged payload" true (Mtrace.equal tr2 tr)
  | None -> Alcotest.fail "absorbed entry not found"

(* ------------------------------------------------------------------ *)
(* the write-through tier: Tcache in front of Tstore *)

let test_tcache_write_through () =
  let dir = tmp_dir "tstore-tier" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = compile {|fn main() -> int { return 41 + 1; }|} in
  let gen_calls = ref 0 in
  let gen () = incr gen_calls; Mtrace.generate_program ~fuel p in
  let ts = Tstore.open_dir dir in
  let tc = Tcache.create ~store:ts () in
  let tr = Tcache.find_or_generate tc ~ir_digest:"p" ~fuel gen in
  Alcotest.(check int) "generated once" 1 !gen_calls;
  Alcotest.(check int) "written through" 1 (Tstore.entries ts);
  ignore (Tcache.find_or_generate tc ~ir_digest:"p" ~fuel gen);
  Alcotest.(check int) "memory hit, no second generate" 1 !gen_calls;
  Tstore.close ts;
  (* a cold cache over the same store: the trace must come from disk,
     never from the generator *)
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  let tc = Tcache.create ~store:ts () in
  let tr' =
    Tcache.find_or_generate tc ~ir_digest:"p" ~fuel (fun () ->
        Alcotest.fail "store-backed miss must not regenerate")
  in
  Alcotest.(check int) "store hit" 1 (Tstore.hits ts);
  Alcotest.(check bool) "bit-exact through the tier" true
    (Mtrace.equal tr tr')

(* ------------------------------------------------------------------ *)
(* grid pricing *)

let test_parallel_grid_bit_identical () =
  let configs = Array.of_list Config.all in
  List.iter
    (fun (w : Workloads.t) ->
      let p = Workloads.program w in
      let serial = Mach.Sim.run_grid ~configs p in
      let par = Engine.Grid.run_grid ~configs p in
      Array.iteri
        (fun i (a : Mach.Sim.result) ->
          let b = par.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: parallel == serial grid"
               w.Workloads.name configs.(i).Config.name)
            true
            (Stdlib.compare
               (a.Mach.Sim.cycles, a.Mach.Sim.counters, a.Mach.Sim.ret,
                a.Mach.Sim.output, a.Mach.Sim.steps)
               (b.Mach.Sim.cycles, b.Mach.Sim.counters, b.Mach.Sim.ret,
                b.Mach.Sim.output, b.Mach.Sim.steps)
             = 0))
        serial)
    [ List.hd Workloads.all; List.nth Workloads.all 4 ]

let test_parallel_grid_trap () =
  let p = compile trap_program in
  let configs = Array.of_list Config.all in
  match Engine.Grid.run_grid ~configs p with
  | _ -> Alcotest.fail "grid of a trapping program must raise"
  | exception Mira.Interp.Trap m ->
    Alcotest.(check string) "trap message" "division by zero" m

(* a store-backed grid across a reopen: second run replays from disk *)
let test_grid_from_store () =
  let dir = tmp_dir "tstore-grid" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let w = List.hd Workloads.all in
  let p = Workloads.program w in
  let configs = Array.of_list Config.all in
  let run () =
    let ts = Tstore.open_dir dir in
    Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
    Engine.Grid.run_grid ~tcache:(Tcache.create ~store:ts ()) ~configs p
  in
  let cold = run () and warm = run () in
  let serial = Mach.Sim.run_grid ~configs p in
  Array.iteri
    (fun i (a : Mach.Sim.result) ->
      List.iter
        (fun ((b : Mach.Sim.result), leg) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: %s grid == direct simulation"
               w.Workloads.name configs.(i).Config.name leg)
            true
            (Stdlib.compare
               (a.Mach.Sim.cycles, a.Mach.Sim.counters, a.Mach.Sim.ret,
                a.Mach.Sim.output, a.Mach.Sim.steps)
               (b.Mach.Sim.cycles, b.Mach.Sim.counters, b.Mach.Sim.ret,
                b.Mach.Sim.output, b.Mach.Sim.steps)
             = 0))
        [ (cold.(i), "cold"); (warm.(i), "warm") ])
    serial

(* Grid pricing forks nothing: whatever [jobs] says, every config is
   folded in this process, so the pool's task counter stays put over
   finished, trapped and exhausted traces and a whole [run_grid] *)
let test_grid_forks_nothing () =
  let configs = Array.of_list Config.all in
  let tasks = Obs.Metrics.counter "pool.tasks" in
  let before = Obs.Metrics.value tasks in
  let p = Workloads.program (List.hd Workloads.all) in
  let expected = Mach.Sim.run_grid ~configs p in
  let check leg (rs : Mach.Sim.result array) =
    Array.iteri
      (fun i (a : Mach.Sim.result) ->
        let b = rs.(i) in
        Alcotest.(check bool)
          (Printf.sprintf "%s on %s: == Sim.run_grid" leg
             configs.(i).Config.name)
          true
          (Stdlib.compare
             (a.Mach.Sim.cycles, a.Mach.Sim.counters, a.Mach.Sim.ret,
              a.Mach.Sim.output, a.Mach.Sim.steps)
             (b.Mach.Sim.cycles, b.Mach.Sim.counters, b.Mach.Sim.ret,
              b.Mach.Sim.output, b.Mach.Sim.steps)
           = 0))
      expected;
    (* no two results share an output string, so a marshaled grid has
       the same bytes as one priced in worker processes *)
    let o i = rs.(i).Mach.Sim.output in
    Alcotest.(check bool)
      (leg ^ ": each result owns its output")
      true
      (o 0 != o 1 && o 1 != o 2 && o 0 != o 2)
  in
  check "replay_grid"
    (Engine.Grid.replay_grid ~jobs:2 ~configs
       (Mtrace.generate_program ~fuel p));
  (match
     Engine.Grid.replay_grid ~jobs:2 ~configs
       (Mtrace.generate_program ~fuel (compile trap_program))
   with
  | _ -> Alcotest.fail "a trapped trace must raise"
  | exception Mira.Interp.Trap m ->
    Alcotest.(check string) "trap message" "division by zero" m);
  (match
     Engine.Grid.replay_grid ~jobs:2 ~configs
       (Mtrace.generate_program ~fuel:10 (compile trap_program))
   with
  | _ -> Alcotest.fail "an exhausted trace must raise"
  | exception Mira.Interp.Out_of_fuel -> ());
  check "run_grid" (Engine.Grid.run_grid ~configs p);
  Alcotest.(check int) "no pool task" before (Obs.Metrics.value tasks)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    ( "codec",
      [
        slow "round-trip: bit-exact, replayable, compact (suite + trap + fuel)"
          test_codec_round_trip;
        t "garbage is rejected, never crashes" test_codec_rejects_garbage;
      ] );
    ( "store",
      [
        t "add / close / reopen / find round-trip" test_store_round_trip;
        t "full-length key misses cleanly" test_full_length_key_misses;
        t "format-1 log is quarantined and upgraded" test_format1_log_upgrades;
        t "damage to a blob's key quarantines it" test_key_damage_quarantines;
        t "torn write: quarantined and self-healed" test_torn_write_quarantine;
        t "absorb merges worker stores" test_absorb;
        t "Tcache writes through and reads back" test_tcache_write_through;
      ] );
    ( "grid",
      [
        t "parallel grid == serial grid (bit-identical)"
          test_parallel_grid_bit_identical;
        t "parallel grid re-raises traps" test_parallel_grid_trap;
        t "store-backed grid across a reopen" test_grid_from_store;
        t "grid pricing forks nothing" test_grid_forks_nothing;
      ] );
  ]

let () = Alcotest.run "tstore" suite
