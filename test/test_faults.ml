(* Fault injection and the crash-safe, self-healing engine:
   - Faults plan parsing and occurrence semantics;
   - every Pool outcome (Done/Failed/Crashed/Timed_out) from one
     deterministic injected run, poison-task quarantine, and graceful
     degradation to serial execution when (re)spawning workers fails;
   - Rcache v3 replay under injected corruption (torn final line,
     bit-flipped line, truncated header, duplicate keys), quarantine
     accounting, legacy v1/v2 quarantine, atomic compaction, absorbed
     write errors, and the single-writer lock;
   - Journal checkpoint/resume: a sweep killed mid-run (injected
     kill -9) resumes to byte-identical results, also when its chunks
     run on the engine's worker pool, and a journaled -j N sweep equals
     the serial one;
   - Rcache.absorb of another cache directory: exact accounting over
     disjoint, overlapping and corrupt donors; live and alien donors
     refused. *)

module Faults = Engine.Faults
module Pool = Engine.Pool
module Rcache = Engine.Rcache
module Journal = Engine.Journal

let tmp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let with_tmp_dir prefix f =
  let d = tmp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let log_path dir = Filename.concat dir "results.log"
let lock_path dir = Filename.concat dir "cache.lock"

(* ------------------------------------------------------------------ *)
(* Faults *)

let test_faults_parse () =
  Alcotest.(check bool) "bad point rejected" true
    (Result.is_error (Faults.parse "no-such-point@1"));
  Alcotest.(check bool) "missing occurrence rejected" true
    (Result.is_error (Faults.parse "worker-crash"));
  Alcotest.(check bool) "bad occurrence rejected" true
    (Result.is_error (Faults.parse "worker-crash@x"));
  Alcotest.(check bool) "negative occurrence rejected" true
    (Result.is_error (Faults.parse "worker-crash@-1"));
  Alcotest.(check bool) "bad arg rejected" true
    (Result.is_error (Faults.parse "worker-hang@1=x"));
  Alcotest.(check bool) "empty spec rejected" true
    (Result.is_error (Faults.parse ""));
  Alcotest.(check bool) "directives parse" true
    (Result.is_ok
       (Faults.parse "worker-crash@3,worker-hang@2=60,spawn-fail@*,torn-append@4+"))

let test_faults_occurrences () =
  Faults.with_plan
    (Faults.parse_exn "torn-append@1,flip-append@2+,fail-append@*")
    (fun () ->
      (* counted occurrences: 0,1,2,... per point *)
      Alcotest.(check (list bool))
        "Nth fires exactly once" [ false; true; false; false ]
        (List.init 4 (fun _ -> Faults.fires "torn-append"));
      Alcotest.(check (list bool))
        "From fires from N on" [ false; false; true; true ]
        (List.init 4 (fun _ -> Faults.fires "flip-append"));
      Alcotest.(check (list bool))
        "Every always fires" [ true; true; true ]
        (List.init 3 (fun _ -> Faults.fires "fail-append"));
      (* explicit indices do not touch the counters *)
      Alcotest.(check bool) "explicit index, no fire" false
        (Faults.fires ~index:0 "torn-append");
      Alcotest.(check bool) "explicit index, fire" true
        (Faults.fires ~index:1 "torn-append"));
  Alcotest.(check bool) "with_plan restores" false (Faults.active ());
  (* arguments ride along *)
  Faults.with_plan
    (Faults.parse_exn "worker-hang@5=42")
    (fun () ->
      match Faults.consult ~index:5 "worker-hang" with
      | Some h ->
        Alcotest.(check (option int)) "arg carried" (Some 42) h.Faults.arg
      | None -> Alcotest.fail "directive did not fire")

(* ------------------------------------------------------------------ *)
(* Pool under injection *)

let outcome_int : int Pool.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Pool.Done v -> Fmt.pf ppf "Done %d" v
      | Pool.Failed e -> Fmt.pf ppf "Failed %s" e
      | Pool.Crashed -> Fmt.pf ppf "Crashed"
      | Pool.Timed_out -> Fmt.pf ppf "Timed_out")
    ( = )

(* one run exhibiting all four outcomes, deterministically: task 2
   raises, task 4's worker dies on every attempt (poison), task 7's
   worker hangs past the timeout, everything else succeeds *)
let all_outcomes_run () =
  let h = Pool.empty_health () in
  let got =
    Faults.with_plan
      (Faults.parse_exn "worker-crash@4,worker-hang@7=600")
      (fun () ->
        Pool.map ~jobs:3 ~task_timeout:0.5 ~retries:1 ~health:h
          (fun i -> if i = 2 then failwith "boom" else i)
          (Array.init 10 Fun.id))
  in
  (got, h)

let test_pool_all_outcomes () =
  let got, h = all_outcomes_run () in
  Array.iteri
    (fun i o ->
      match i with
      | 2 -> (
        match o with
        | Pool.Failed _ -> ()
        | o ->
          Alcotest.failf "task 2: expected Failed, got %a"
            (Alcotest.pp outcome_int) o)
      | 4 ->
        Alcotest.(check outcome_int) "task 4 poisoned" Pool.Crashed o
      | 7 ->
        Alcotest.(check outcome_int) "task 7 timed out" Pool.Timed_out o
      | i -> Alcotest.(check outcome_int) "survivor" (Pool.Done i) o)
    got;
  Alcotest.(check int) "task 4 killed two workers" 2 h.Pool.crashed_workers;
  Alcotest.(check int) "poison registry has task 4" 1 h.Pool.poisoned;
  Alcotest.(check int) "one timeout" 1 h.Pool.timeouts;
  Alcotest.(check bool) "workers were respawned" true (h.Pool.respawns >= 1);
  Alcotest.(check int) "no serial fallback" 0 h.Pool.serial_fallbacks

let test_pool_injection_deterministic () =
  let a, _ = all_outcomes_run () in
  let b, _ = all_outcomes_run () in
  Alcotest.(check (array outcome_int)) "two injected runs agree" a b

let test_pool_no_workers_serial_fallback () =
  (* every fork fails: the pool must degrade to in-process serial
     execution and still complete every task *)
  let h = Pool.empty_health () in
  let got =
    Faults.with_plan (Faults.parse_exn "spawn-fail@*") (fun () ->
        Pool.map ~jobs:3 ~health:h (fun i -> i * 2) (Array.init 8 Fun.id))
  in
  Array.iteri
    (fun i o ->
      Alcotest.(check outcome_int) "done serially" (Pool.Done (i * 2)) o)
    got;
  Alcotest.(check int) "fell back to serial once" 1 h.Pool.serial_fallbacks;
  Alcotest.(check int) "three failed forks" 3 h.Pool.spawn_failures

let test_pool_respawn_exhaustion_serial_fallback () =
  (* both initial workers die on their first task and every respawn
     fails: the remaining tasks (including the ones that crashed a
     worker once) complete serially *)
  let h = Pool.empty_health () in
  let got =
    Faults.with_plan
      (Faults.parse_exn "worker-crash@0,worker-crash@1,spawn-fail@2+")
      (fun () ->
        Pool.map ~jobs:2 ~retries:1 ~health:h ~max_respawns:3
          ~respawn_backoff:0.001 Fun.id (Array.init 6 Fun.id))
  in
  Array.iteri
    (fun i o ->
      Alcotest.(check outcome_int) "completed serially" (Pool.Done i) o)
    got;
  Alcotest.(check int) "serial fallback" 1 h.Pool.serial_fallbacks;
  Alcotest.(check int) "two crashed workers" 2 h.Pool.crashed_workers;
  Alcotest.(check bool) "respawns all failed" true (h.Pool.spawn_failures >= 1);
  Alcotest.(check int) "nothing poisoned" 0 h.Pool.poisoned

(* ------------------------------------------------------------------ *)
(* Rcache corruption, quarantine, healing *)

let entry : Rcache.entry Alcotest.testable =
  Alcotest.testable
    (fun ppf -> function
      | Rcache.Measured { ir_digest; cycles; code_size; counters } ->
        Fmt.pf ppf "Measured(%s,%d,%d,[%d])" ir_digest cycles code_size
          (Array.length counters)
      | Rcache.Failure { ir_digest } -> Fmt.pf ppf "Failure(%s)" ir_digest)
    ( = )

(* v3 entries carry the compiled program's IR digest (32 hex chars) *)
let dg c = String.make 32 c

let m1 =
  Rcache.Measured
    { ir_digest = dg 'a'; cycles = 100; code_size = 7; counters = [| 1; 2 |] }

let m2 =
  Rcache.Measured
    { ir_digest = dg 'b'; cycles = 50; code_size = 3; counters = [||] }

let sealed key e = Rcache.seal_line (Rcache.entry_to_line key e) ^ "\n"

let test_entry_of_line_validation () =
  let ok l = Result.is_ok (Rcache.entry_of_line l) in
  let d = dg 'a' in
  Alcotest.(check bool) "valid ok line" true
    (ok (Printf.sprintf "ok|k|%s|5|2|1,2,3" d));
  Alcotest.(check bool) "valid empty counters" true
    (ok (Printf.sprintf "ok|k|%s|5|2|" d));
  Alcotest.(check bool) "valid fail line" true
    (ok (Printf.sprintf "fail|k|%s" d));
  Alcotest.(check bool) "negative cycles rejected" false
    (ok (Printf.sprintf "ok|k|%s|-5|2|1" d));
  Alcotest.(check bool) "negative size rejected" false
    (ok (Printf.sprintf "ok|k|%s|5|-2|1" d));
  Alcotest.(check bool) "negative counter rejected" false
    (ok (Printf.sprintf "ok|k|%s|5|2|1,-2" d));
  Alcotest.(check bool) "junk after counters rejected" false
    (ok (Printf.sprintf "ok|k|%s|5|2|1,2junk" d));
  Alcotest.(check bool) "trailing comma rejected" false
    (ok (Printf.sprintf "ok|k|%s|5|2|1,2," d));
  Alcotest.(check bool) "hex cycles rejected" false
    (ok (Printf.sprintf "ok|k|%s|0x10|2|1" d));
  Alcotest.(check bool) "extra field rejected" false
    (ok (Printf.sprintf "ok|k|%s|5|2|1|9" d));
  Alcotest.(check bool) "empty key rejected" false
    (ok (Printf.sprintf "fail||%s" d));
  Alcotest.(check bool) "overflow rejected" false
    (ok (Printf.sprintf "ok|k|%s|99999999999999999999999999|2|1" d));
  (* v3 requires the IR-digest field; v1/v2-shaped lines must not parse *)
  Alcotest.(check bool) "v2 ok shape rejected" false (ok "ok|k|5|2|1,2");
  Alcotest.(check bool) "v2 fail shape rejected" false (ok "fail|k");
  Alcotest.(check bool) "short digest rejected" false
    (ok (Printf.sprintf "ok|k|%s|5|2|1" (String.make 31 'a')));
  Alcotest.(check bool) "uppercase digest rejected" false
    (ok (Printf.sprintf "ok|k|%s|5|2|1" (String.make 32 'A')))

let test_rcache_torn_line_quarantined_and_healed () =
  with_tmp_dir "rc-torn" @@ fun dir ->
  let c = Rcache.open_dir dir in
  Rcache.add c "k1" m1;
  Rcache.add c "k2" m2;
  Rcache.close c;
  (* crash mid-append: half a line, no newline *)
  let line = Rcache.seal_line (Rcache.entry_to_line "k3" m1) in
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 (log_path dir) in
  output_string oc (String.sub line 0 (String.length line / 2));
  close_out oc;
  let c2 = Rcache.open_dir dir in
  Alcotest.(check int) "torn line quarantined" 1 (Rcache.quarantined c2);
  Alcotest.(check (option entry)) "k1 survives" (Some m1)
    (Rcache.find c2 "k1");
  Alcotest.(check (option entry)) "k2 survives" (Some m2)
    (Rcache.find c2 "k2");
  Alcotest.(check (option entry)) "torn key absent" None
    (Rcache.find c2 "k3");
  Rcache.close c2;
  (* the reopen healed the log: third open is clean *)
  let c3 = Rcache.open_dir dir in
  Alcotest.(check int) "log healed" 0 (Rcache.quarantined c3);
  Alcotest.(check int) "entries intact" 2 (Rcache.known c3);
  Rcache.close c3

let test_rcache_bitflip_quarantined () =
  with_tmp_dir "rc-flip" @@ fun dir ->
  (* build the log by hand: k1 intact, k2's line corrupted by one bit *)
  let good = sealed "k1" m1 in
  let bad = Bytes.of_string (sealed "k2" m2) in
  let mid = Bytes.length bad / 2 in
  Bytes.set bad mid (Char.chr (Char.code (Bytes.get bad mid) lxor 1));
  write_file (log_path dir)
    ("mira-rescache 3\n" ^ good ^ Bytes.to_string bad);
  let c = Rcache.open_dir dir in
  Alcotest.(check int) "flipped line quarantined" 1 (Rcache.quarantined c);
  Alcotest.(check (option entry)) "intact entry survives" (Some m1)
    (Rcache.find c "k1");
  Alcotest.(check (option entry)) "corrupt entry dropped" None
    (Rcache.find c "k2");
  Rcache.close c

let test_rcache_semantic_invalid_quarantined () =
  with_tmp_dir "rc-sem" @@ fun dir ->
  (* checksums valid, payloads semantically rotten *)
  write_file (log_path dir)
    ("mira-rescache 3\n"
    ^ Rcache.seal_line (Printf.sprintf "ok|bad1|%s|-5|2|1,2" (dg 'a')) ^ "\n"
    ^ Rcache.seal_line (Printf.sprintf "ok|bad2|%s|5|2|1,2junk" (dg 'a'))
    ^ "\n" ^ sealed "good" m1);
  let c = Rcache.open_dir dir in
  Alcotest.(check int) "both invalid lines quarantined" 2
    (Rcache.quarantined c);
  Alcotest.(check (option entry)) "valid entry survives" (Some m1)
    (Rcache.find c "good");
  Rcache.close c

let test_rcache_truncated_header () =
  with_tmp_dir "rc-hdr" @@ fun dir ->
  (* a crash during cache creation leaves a prefix of the magic *)
  write_file (log_path dir) "mira-resc";
  let c = Rcache.open_dir dir in
  Alcotest.(check int) "torn header quarantined" 1 (Rcache.quarantined c);
  Rcache.add c "k1" m1;
  Rcache.close c;
  let c2 = Rcache.open_dir dir in
  Alcotest.(check int) "healed" 0 (Rcache.quarantined c2);
  Alcotest.(check (option entry)) "entry persisted" (Some m1)
    (Rcache.find c2 "k1");
  Rcache.close c2

let test_rcache_alien_file_refused () =
  with_tmp_dir "rc-alien" @@ fun dir ->
  write_file (log_path dir) "definitely not a result cache\n";
  (match Rcache.open_dir dir with
   | exception Rcache.Cache_error _ -> ()
   | c ->
     Rcache.close c;
     Alcotest.fail "alien file must raise Cache_error, not be clobbered");
  (* the alien file was not touched, and no lock was leaked *)
  Alcotest.(check string) "alien file untouched"
    "definitely not a result cache\n"
    (read_file (log_path dir));
  Alcotest.(check bool) "no stale lock left" false
    (Sys.file_exists (lock_path dir))

let test_rcache_duplicate_key_last_wins () =
  with_tmp_dir "rc-dup" @@ fun dir ->
  write_file (log_path dir)
    ("mira-rescache 3\n" ^ sealed "k" m1 ^ sealed "other" m2 ^ sealed "k" m2);
  let c = Rcache.open_dir dir in
  Alcotest.(check (option entry)) "last line wins" (Some m2)
    (Rcache.find c "k");
  Alcotest.(check int) "two keys known" 2 (Rcache.known c);
  Alcotest.(check int) "nothing quarantined" 0 (Rcache.quarantined c);
  Rcache.close c

let test_rcache_legacy_quarantined () =
  (* v1/v2 entries carry no IR digest, so nothing can be carried into a
     v3 cache: every legacy data line is quarantined and the log is
     rewritten as an empty v3 log that works normally afterwards *)
  let check_legacy name header lines =
    with_tmp_dir name @@ fun dir ->
    write_file (log_path dir) (header ^ "\n" ^ lines);
    let c = Rcache.open_dir dir in
    Alcotest.(check int) "every legacy line quarantined" 3
      (Rcache.quarantined c);
    Alcotest.(check int) "nothing replayed" 0 (Rcache.known c);
    Rcache.add c "d" m2;
    Rcache.close c;
    (* the file is now v3 end to end and clean on reopen *)
    let content = read_file (log_path dir) in
    Alcotest.(check bool) "rewritten header" true
      (String.starts_with ~prefix:"mira-rescache 3\n" content);
    let c2 = Rcache.open_dir dir in
    Alcotest.(check int) "clean after rewrite" 0 (Rcache.quarantined c2);
    Alcotest.(check int) "only the fresh entry" 1 (Rcache.known c2);
    Alcotest.(check (option entry)) "post-rewrite append" (Some m2)
      (Rcache.find c2 "d");
    Rcache.close c2
  in
  check_legacy "rc-v1" "mira-rescache 1" "ok|a|100|7|1,2\nfail|b\nok|c|1";
  check_legacy "rc-v2" "mira-rescache 2"
    (Rcache.seal_line "ok|a|100|7|1,2" ^ "\n"
    ^ Rcache.seal_line "fail|b" ^ "\n"
    ^ Rcache.seal_line "ok|c|1" ^ "\n")

let test_rcache_compact () =
  with_tmp_dir "rc-compact" @@ fun dir ->
  let c = Rcache.open_dir dir in
  Rcache.add c "k" m1;
  Rcache.add c "k" m2;
  Rcache.add c "k" m1;
  Rcache.add c "j" m2;
  Rcache.compact c;
  (* collapsed to one line per key, and still appendable *)
  let lines =
    String.split_on_char '\n' (read_file (log_path dir))
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "header + one line per key" 3 (List.length lines);
  Rcache.add c "post" m1;
  Rcache.close c;
  let c2 = Rcache.open_dir dir in
  Alcotest.(check (option entry)) "latest value survived compaction"
    (Some m1) (Rcache.find c2 "k");
  Alcotest.(check (option entry)) "append after compaction persisted"
    (Some m1) (Rcache.find c2 "post");
  Alcotest.(check int) "clean" 0 (Rcache.quarantined c2);
  Rcache.close c2

let test_rcache_compact_crash_atomic () =
  with_tmp_dir "rc-atomic" @@ fun dir ->
  let c = Rcache.open_dir dir in
  Rcache.add c "k1" m1;
  Rcache.add c "k2" m2;
  (match
     Faults.with_plan (Faults.parse_exn "compact-crash@0") (fun () ->
         Rcache.compact c)
   with
   | () -> Alcotest.fail "injected compaction crash did not fire"
   | exception Faults.Injected _ -> ());
  (* the original log is intact and the handle still works *)
  Rcache.add c "k3" m1;
  Rcache.close c;
  let c2 = Rcache.open_dir dir in
  Alcotest.(check int) "nothing lost" 3 (Rcache.known c2);
  Alcotest.(check int) "nothing quarantined" 0 (Rcache.quarantined c2);
  Alcotest.(check (option entry)) "pre-crash entry" (Some m1)
    (Rcache.find c2 "k1");
  Rcache.close c2

let test_rcache_write_error_absorbed () =
  with_tmp_dir "rc-wfail" @@ fun dir ->
  let c = Rcache.open_dir dir in
  Faults.with_plan (Faults.parse_exn "fail-append@1") (fun () ->
      Rcache.add c "k1" m1;
      Rcache.add c "k2" m2;  (* this append dies on the way to disk *)
      Rcache.add c "k3" m1);
  Alcotest.(check int) "write error counted" 1 (Rcache.write_errors c);
  Alcotest.(check (option entry)) "entry still served from memory"
    (Some m2) (Rcache.find c "k2");
  Rcache.close c;
  let c2 = Rcache.open_dir dir in
  Alcotest.(check (option entry)) "k1 persisted" (Some m1)
    (Rcache.find c2 "k1");
  Alcotest.(check (option entry)) "k3 persisted" (Some m1)
    (Rcache.find c2 "k3");
  Alcotest.(check (option entry)) "k2 lost with the failed write" None
    (Rcache.find c2 "k2");
  Rcache.close c2

let test_rcache_lock_live_owner () =
  with_tmp_dir "rc-lock" @@ fun dir ->
  (* pid 1 is always alive (or at least unsignalable): a lock held by a
     live process must refuse the open *)
  write_file (lock_path dir) "1";
  match Rcache.open_dir dir with
  | exception Rcache.Cache_error _ -> ()
  | c ->
    Rcache.close c;
    Alcotest.fail "open under a live lock must raise Cache_error"

let test_rcache_lock_stale_broken () =
  with_tmp_dir "rc-stale" @@ fun dir ->
  (* a lock left by a dead pid is broken silently *)
  write_file (lock_path dir) "999999999";
  let c = Rcache.open_dir dir in
  Alcotest.(check int) "stale lock broken" 1 (Rcache.stale_locks_broken c);
  Rcache.add c "k" m1;
  Rcache.close c;
  Alcotest.(check bool) "lock released on close" false
    (Sys.file_exists (lock_path dir));
  (* the injected variant: the fault plants a dead-owner lock *)
  let c2 =
    Faults.with_plan (Faults.parse_exn "stale-lock@0") (fun () ->
        Rcache.open_dir dir)
  in
  Alcotest.(check int) "injected stale lock broken" 1
    (Rcache.stale_locks_broken c2);
  Rcache.close c2

let test_rcache_injected_torn_append_roundtrip () =
  (* end to end: tear the 2nd append in-session, reopen, quarantine,
     heal — the other entries survive *)
  with_tmp_dir "rc-tornrt" @@ fun dir ->
  let c = Rcache.open_dir dir in
  Faults.with_plan (Faults.parse_exn "torn-append@1") (fun () ->
      Rcache.add c "k1" m1;
      Rcache.add c "k2" m2;  (* torn: half the line, no newline *)
      Rcache.add c "k3" m1);
  Rcache.close c;
  let c2 = Rcache.open_dir dir in
  (* only the torn k2 line is lost: k3 starts on a fresh line, so
     corruption is contained to the damaged entry, never spread *)
  Alcotest.(check int) "glued line quarantined" 1 (Rcache.quarantined c2);
  Alcotest.(check (option entry)) "k1 survives" (Some m1)
    (Rcache.find c2 "k1");
  Rcache.close c2;
  let c3 = Rcache.open_dir dir in
  Alcotest.(check int) "healed on second open" 0 (Rcache.quarantined c3);
  Rcache.close c3

(* ------------------------------------------------------------------ *)
(* Journal: checkpoint / resume *)

(* a deterministic stand-in for "evaluate sequences lo..hi-1" *)
let fake_costs lo hi =
  Array.init (hi - lo) (fun k ->
      let i = lo + k in
      if i mod 7 = 3 then infinity else float_of_int (i * i mod 97))

let counting_eval calls lo hi =
  incr calls;
  fake_costs lo hi

let check_float_array label a b =
  Alcotest.(check int) (label ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (x = b.(i) || (Float.is_nan x && Float.is_nan b.(i))) then
        Alcotest.failf "%s: cost %d differs (%h vs %h)" label i x b.(i))
    a

let test_journal_resume_skips_done_chunks () =
  with_tmp_dir "journal" @@ fun dir ->
  let path = Filename.concat dir "sweep.log" in
  let calls = ref 0 in
  let out1 =
    Journal.run ~path ~key:"k" ~chunk_size:4 ~n:14 (counting_eval calls)
  in
  Alcotest.(check int) "cold run evaluates every chunk" 4 !calls;
  check_float_array "cold run" (fake_costs 0 14) out1;
  calls := 0;
  let out2 =
    Journal.run ~path ~key:"k" ~chunk_size:4 ~n:14 (counting_eval calls)
  in
  Alcotest.(check int) "journaled rerun evaluates nothing" 0 !calls;
  check_float_array "rerun identical" out1 out2;
  (* a different key must not resume from this journal *)
  calls := 0;
  ignore
    (Journal.run ~path ~key:"other" ~chunk_size:4 ~n:14
       (counting_eval calls));
  Alcotest.(check int) "key mismatch discards journal" 4 !calls

let run_killed_then_resumed ~plan ~resumed_evals dir =
  (* the sweep, killed mid-run by an injected fault (in a forked child,
     so the kill is real), then resumed in this process: the result
     must be byte-identical to an uninterrupted run *)
  let path = Filename.concat dir "sweep.log" in
  flush stdout;
  flush stderr;
  (match Unix.fork () with
   | 0 ->
     (try
        Faults.install (Faults.parse_exn plan);
        ignore
          (Journal.run ~path ~key:"k" ~chunk_size:4 ~n:14 (fun lo hi ->
               fake_costs lo hi))
      with _ -> ());
     Unix._exit 99 (* only reached if the injected kill did not fire *)
   | pid -> (
     match snd (Unix.waitpid [] pid) with
     | Unix.WEXITED 21 -> () (* the injected kill -9 stand-in *)
     | st ->
       Alcotest.failf "child: expected injected exit 21, got %s"
         (match st with
          | Unix.WEXITED c -> Printf.sprintf "exit %d" c
          | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s)));
  let calls = ref 0 in
  let resumed =
    Journal.run ~path ~key:"k" ~chunk_size:4 ~n:14 (counting_eval calls)
  in
  Alcotest.(check int) "resume recomputes only missing chunks"
    resumed_evals !calls;
  let uninterrupted =
    Journal.run
      ~path:(Filename.concat dir "fresh.log")
      ~key:"k" ~chunk_size:4 ~n:14
      (fun lo hi -> fake_costs lo hi)
  in
  check_float_array "killed+resumed = uninterrupted" uninterrupted resumed

let test_journal_killed_and_resumed () =
  with_tmp_dir "journal-kill" @@ fun dir ->
  (* killed right after journaling chunk 1: chunks 0,1 resume for free *)
  run_killed_then_resumed ~plan:"sweep-crash@1" ~resumed_evals:2 dir

let test_journal_torn_then_killed () =
  with_tmp_dir "journal-torn" @@ fun dir ->
  (* chunk 1's record is torn mid-write and the run then killed: chunk 0
     resumes, the torn chunk is quarantined and recomputed *)
  run_killed_then_resumed ~plan:"sweep-torn@1,sweep-crash@1"
    ~resumed_evals:3 dir

(* ------------------------------------------------------------------ *)
(* Engine end to end under injection *)

let config = Mach.Config.default
let target = Workloads.program (Workloads.by_name_exn "adpcm")

let sequences n =
  let rng = Random.State.make [| 7 |] in
  Search.Space.sample_distinct rng n

let test_engine_crash_not_cached () =
  with_tmp_dir "eng-fault" @@ fun dir ->
  (* sharing off: the exact entry/simulation counts below are the
     seed's one-simulation-per-miss accounting *)
  let eng =
    Engine.create ~jobs:2 ~share:false ~cache:(Rcache.open_dir dir) config
  in
  let seqs = sequences 6 in
  let out =
    Faults.with_plan (Faults.parse_exn "worker-crash@0") (fun () ->
        Engine.eval_batch eng target seqs)
  in
  Alcotest.(check (float 0.0)) "crashed task costs infinity" infinity
    out.(0).Engine.cost;
  Alcotest.(check bool) "not served from cache" false
    out.(0).Engine.from_cache;
  Array.iteri
    (fun i (o : Engine.outcome) ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "task %d measured" i)
          true
          (o.Engine.cost < infinity))
    out;
  let h = Engine.health eng in
  Alcotest.(check int) "poisoned task reported" 1 h.Engine.poisoned;
  Alcotest.(check bool) "engine reports degraded" false (Engine.healthy eng);
  (* a crash is not a property of the key: it was not cached, and a
     clean re-run measures it for real *)
  Alcotest.(check int) "crashed entry not cached" 5
    (Rcache.known (Engine.cache eng));
  let out2 = Engine.eval_batch eng target seqs in
  Alcotest.(check bool) "re-run measures the crashed task" true
    (out2.(0).Engine.cost < infinity);
  Alcotest.(check int) "exactly one extra simulation" 7
    (Engine.stats eng).Engine.sims;
  Engine.Rcache.close (Engine.cache eng)

let test_engine_crash_not_cached_shared () =
  (* same crash under the prefix-sharing engine: a crashed simulation
     job must poison every miss that depended on it (none cached, none
     dedup-filled from it), and a clean re-run measures them for real *)
  with_tmp_dir "eng-fault-share" @@ fun dir ->
  let eng =
    Engine.create ~jobs:2 ~share:true ~cache:(Rcache.open_dir dir) config
  in
  let seqs = sequences 6 in
  let out =
    Faults.with_plan (Faults.parse_exn "worker-crash@0") (fun () ->
        Engine.eval_batch eng target seqs)
  in
  Alcotest.(check (float 0.0)) "crashed task costs infinity" infinity
    out.(0).Engine.cost;
  Alcotest.(check bool) "not served from cache" false
    out.(0).Engine.from_cache;
  Alcotest.(check int) "poisoned task reported" 1 (Engine.health eng).Engine.poisoned;
  (* every outcome of the clean re-run is measured, including the
     crashed one, and matches the no-share engine *)
  let out2 = Engine.eval_batch eng target seqs in
  Alcotest.(check bool) "re-run measures the crashed task" true
    (out2.(0).Engine.cost < infinity);
  let ref_eng = Engine.create ~share:false config in
  let ref_out = Engine.eval_batch ref_eng target seqs in
  Array.iteri
    (fun i (r : Engine.outcome) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "re-run outcome %d matches no-share" i)
        r.Engine.cost out2.(i).Engine.cost)
    ref_out;
  Engine.Rcache.close (Engine.cache eng)

(* ------------------------------------------------------------------ *)
(* Journal over the engine's worker pool *)

(* a journaled sweep of [seqs] whose chunks run through Engine.costs on
   a fresh [jobs]-worker engine; [calls] counts evaluated chunks *)
let engine_sweep ?(calls = ref 0) ~jobs ~chunk_size ~path prog seqs =
  let eng = Engine.create ~jobs config in
  let seqs = Array.of_list seqs in
  Journal.run ~path ~key:"engine" ~chunk_size ~n:(Array.length seqs)
    (fun lo hi ->
      incr calls;
      Engine.costs eng prog (Array.to_list (Array.sub seqs lo (hi - lo))))

let test_journal_pool_killed_and_resumed () =
  with_tmp_dir "journal-pool-kill" @@ fun dir ->
  let path = Filename.concat dir "sweep.log" in
  let seqs = sequences 14 in
  flush stdout;
  flush stderr;
  (match Unix.fork () with
   | 0 ->
     (try
        Faults.install (Faults.parse_exn "sweep-crash@1");
        ignore (engine_sweep ~jobs:2 ~chunk_size:4 ~path target seqs)
      with _ -> ());
     Unix._exit 99
   | pid -> (
     match snd (Unix.waitpid [] pid) with
     | Unix.WEXITED 21 -> ()
     | Unix.WEXITED c -> Alcotest.failf "child: expected exit 21, got %d" c
     | _ -> Alcotest.fail "child: expected exit 21, got a signal"));
  let calls = ref 0 in
  let resumed = engine_sweep ~calls ~jobs:2 ~chunk_size:4 ~path target seqs in
  Alcotest.(check int) "resume evaluates only the 2 missing chunks" 2 !calls;
  let uninterrupted =
    engine_sweep ~jobs:1 ~chunk_size:4
      ~path:(Filename.concat dir "serial.log")
      target seqs
  in
  check_float_array "killed at -j 2 + resumed = uninterrupted -j 1"
    uninterrupted resumed

let test_journal_pool_matches_serial_fuzzed () =
  let prog =
    match Testgen.Gen_program.compile 7003 with
    | Ok p -> p
    | Error e -> Alcotest.failf "testgen program: %s" e
  in
  let rng = Random.State.make [| 20260808 |] in
  for case = 0 to 5 do
    let n = 1 + Random.State.int rng 24 in
    let chunk_size = 1 + Random.State.int rng 6 in
    let jobs = 2 + Random.State.int rng 3 in
    let seqs = Search.Space.sample_distinct rng n in
    with_tmp_dir "journal-pool-fuzz" @@ fun dir ->
    let label =
      Printf.sprintf "case %d (n=%d chunk=%d -j %d)" case n chunk_size jobs
    in
    check_float_array label
      (Engine.costs (Engine.create ~jobs:1 config) prog seqs)
      (engine_sweep ~jobs ~chunk_size
         ~path:(Filename.concat dir "sweep.log")
         prog seqs)
  done

let test_journal_discard_counted () =
  with_tmp_dir "journal-discard" @@ fun dir ->
  let path = Filename.concat dir "sweep.log" in
  let discarded = Obs.Metrics.counter "journal.discarded" in
  let discards () = Obs.Metrics.value discarded in
  let before = discards () in
  let sweep ~key ~chunk_size =
    ignore (Journal.run ~path ~key ~chunk_size ~n:14 fake_costs)
  in
  sweep ~key:"k" ~chunk_size:4;
  sweep ~key:"k" ~chunk_size:4;
  Alcotest.(check int) "resuming discards nothing" before (discards ());
  sweep ~key:"other" ~chunk_size:4;
  Alcotest.(check int) "a key change is counted" (before + 1) (discards ());
  sweep ~key:"other" ~chunk_size:7;
  Alcotest.(check int) "a chunking change is counted" (before + 2)
    (discards ());
  write_file path "hello\nworld\n";
  sweep ~key:"other" ~chunk_size:7;
  Alcotest.(check int) "an alien file is counted" (before + 3) (discards ())

(* ------------------------------------------------------------------ *)
(* Rcache.absorb *)

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

let () =
  Random.self_init ();
  Alcotest.run "faults"
    [
      ( "faults",
        [
          Alcotest.test_case "spec parsing" `Quick test_faults_parse;
          Alcotest.test_case "occurrence semantics" `Quick
            test_faults_occurrences;
        ] );
      ( "pool",
        [
          Alcotest.test_case "all four outcomes, one run" `Quick
            test_pool_all_outcomes;
          Alcotest.test_case "injected runs deterministic" `Quick
            test_pool_injection_deterministic;
          Alcotest.test_case "no workers -> serial fallback" `Quick
            test_pool_no_workers_serial_fallback;
          Alcotest.test_case "respawn exhaustion -> serial fallback" `Quick
            test_pool_respawn_exhaustion_serial_fallback;
        ] );
      ( "rcache",
        [
          Alcotest.test_case "entry_of_line validation" `Quick
            test_entry_of_line_validation;
          Alcotest.test_case "torn line quarantined + healed" `Quick
            test_rcache_torn_line_quarantined_and_healed;
          Alcotest.test_case "bit flip quarantined" `Quick
            test_rcache_bitflip_quarantined;
          Alcotest.test_case "semantic rot quarantined" `Quick
            test_rcache_semantic_invalid_quarantined;
          Alcotest.test_case "truncated header" `Quick
            test_rcache_truncated_header;
          Alcotest.test_case "alien file refused" `Quick
            test_rcache_alien_file_refused;
          Alcotest.test_case "duplicate key last wins" `Quick
            test_rcache_duplicate_key_last_wins;
          Alcotest.test_case "legacy v1/v2 logs quarantined" `Quick
            test_rcache_legacy_quarantined;
          Alcotest.test_case "compaction" `Quick test_rcache_compact;
          Alcotest.test_case "compaction crash is atomic" `Quick
            test_rcache_compact_crash_atomic;
          Alcotest.test_case "write errors absorbed" `Quick
            test_rcache_write_error_absorbed;
          Alcotest.test_case "live lock refused" `Quick
            test_rcache_lock_live_owner;
          Alcotest.test_case "stale lock broken" `Quick
            test_rcache_lock_stale_broken;
          Alcotest.test_case "injected torn append round-trip" `Quick
            test_rcache_injected_torn_append_roundtrip;
        ] );
      ( "journal",
        [
          Alcotest.test_case "resume skips done chunks" `Quick
            test_journal_resume_skips_done_chunks;
          Alcotest.test_case "killed then resumed = uninterrupted" `Quick
            test_journal_killed_and_resumed;
          Alcotest.test_case "torn record then killed" `Quick
            test_journal_torn_then_killed;
          Alcotest.test_case "two-worker sweep killed, resumed = serial"
            `Quick test_journal_pool_killed_and_resumed;
          Alcotest.test_case "-j N sweep = serial, fuzzed shapes"
            `Quick test_journal_pool_matches_serial_fuzzed;
          Alcotest.test_case "discards counted" `Quick
            test_journal_discard_counted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "worker crash: infinity, uncached, reported"
            `Quick test_engine_crash_not_cached;
          Alcotest.test_case "worker crash under sharing: poisoned, uncached"
            `Quick test_engine_crash_not_cached_shared;
        ] );
      ( "absorb",
        [
          Alcotest.test_case "disjoint/overlapping/corrupt donors" `Quick
            test_absorb_fuzz;
          Alcotest.test_case "edge cases" `Quick test_absorb_edge_cases;
        ] );
    ]
