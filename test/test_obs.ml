(* The observability layer:
   - histogram bucket and quantile math (log2 buckets, 2x-bounded
     interpolated quantiles);
   - span nesting, unbalanced-end handling, cross-process forwarding;
   - byte-deterministic trace JSON and metrics table under a fake clock;
   - Obs.Json: the number and string spellings, the document layout,
     byte-exact round trips of every writer's output, strict parsing
     (no strict prefix of a document parses) and truncated trace arrays;
   - a sweep killed mid-run (injected kill -9, real fork) leaves a
     loadable partial trace: the streaming sink's crash-safety claim. *)

module Clock = Obs.Clock
module Trace = Obs.Trace
module Metrics = Obs.Metrics

let reset_tracing () =
  Trace.disable ();
  Clock.set (fun () -> 0.0)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_bucket_math () =
  let b = Metrics.bucket_of_value in
  Alcotest.(check int) "zero underflows" 0 (b 0.0);
  Alcotest.(check int) "nan underflows" 0 (b Float.nan);
  Alcotest.(check int) "below lo underflows" 0 (b 1e-7);
  Alcotest.(check int) "lo bound is bucket 1" 1 (b 1e-6);
  Alcotest.(check int) "one doubling up" 2 (b 2e-6);
  Alcotest.(check int) "huge overflows" (Metrics.n_buckets + 1) (b 1e30);
  (* monotone over doublings, and each doubling moves at most 1 bucket *)
  let prev = ref (b 1e-6) in
  for i = 1 to 40 do
    let v = 1e-6 *. Float.pow 2.0 (float_of_int i) in
    let bi = b v in
    if bi < !prev || bi > !prev + 1 then
      Alcotest.failf "bucket not monotone at %g: %d after %d" v bi !prev;
    prev := bi
  done

let test_quantiles () =
  let h = Metrics.histogram "t.quant" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum exact" 5050.0 (Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "q0 is min" 1.0 (Metrics.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "q1 is max" 100.0 (Metrics.quantile h 1.0);
  (* bucketed quantiles are within a factor of 2 of the truth *)
  List.iter
    (fun (q, truth) ->
      let v = Metrics.quantile h q in
      if v < truth /. 2.0 || v > truth *. 2.0 then
        Alcotest.failf "q%.2f = %g not within 2x of %g" q v truth)
    [ (0.5, 50.0); (0.9, 90.0); (0.99, 99.0) ]

let test_kinds () =
  let c = Metrics.counter "t.kinds" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter adds" 5 (Metrics.value c);
  let c' = Metrics.counter "t.kinds" in
  Metrics.incr c';
  Alcotest.(check int) "same name shares state" 6 (Metrics.value c);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       "Obs.Metrics: \"t.kinds\" already registered with another kind")
    (fun () -> ignore (Metrics.histogram "t.kinds"))

let test_table_deterministic () =
  Metrics.reset ();
  Metrics.incr ~by:3 (Metrics.counter "t.det.count");
  Metrics.set (Metrics.gauge "t.det.g") 2.5;
  let h = Metrics.histogram "t.det.h" in
  Metrics.observe h 4.0;
  Metrics.observe h 4.0;
  Alcotest.(check string) "table is byte-deterministic"
    "metrics\n\
    \  t.det.count  3\n\
    \  t.det.g      2.5\n\
    \  t.det.h      n=2 sum=8 min=4 p50=4 p90=4 p99=4 max=4 ms\n"
    (Format.asprintf "%a" Metrics.pp_table ());
  Alcotest.(check string) "jsonl is byte-deterministic"
    "{\"type\":\"counter\",\"name\":\"t.det.count\",\"value\":3}\n\
     {\"type\":\"gauge\",\"name\":\"t.det.g\",\"value\":2.5}\n\
     {\"type\":\"histogram\",\"name\":\"t.det.h\",\"unit\":\"ms\",\"count\":2,\
      \"sum\":8,\"min\":4,\"max\":4,\"p50\":4,\"p90\":4,\"p99\":4}\n"
    (Metrics.to_jsonl ());
  Metrics.reset ();
  Alcotest.(check string) "empty table"
    "metrics (none recorded)\n"
    (Format.asprintf "%a" Metrics.pp_table ())

(* ------------------------------------------------------------------ *)
(* Trace *)

let phases_and_names () =
  List.map (fun e -> (e.Trace.ph, e.Trace.name)) (Trace.events ())

let test_span_nesting () =
  reset_tracing ();
  Clock.set (Clock.fake ());
  Trace.enable_memory ();
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.instant "mark");
  Alcotest.(check int) "all spans closed" 0 (Trace.open_spans ());
  Alcotest.(check (list (pair bool string)))
    "B/E pairing nests"
    [ (true, "outer"); (true, "inner"); (false, "inner"); (false, "mark");
      (false, "outer") ]
    (List.map
       (fun (ph, n) -> (ph = Trace.B, n))
       (phases_and_names ()));
  (* timestamps from the fake clock are strictly increasing *)
  let ts = List.map (fun e -> e.Trace.ts) (Trace.events ()) in
  Alcotest.(check bool) "timestamps increase" true
    (List.sort compare ts = ts && List.sort_uniq compare ts = ts);
  Trace.disable ()

let test_unbalanced_end () =
  reset_tracing ();
  Trace.enable_memory ();
  Trace.end_span ();
  Alcotest.(check int) "stray end counted" 1 (Trace.unbalanced_ends ());
  Alcotest.(check int) "stray end dropped" 0 (List.length (Trace.events ()));
  Trace.begin_span "x";
  Trace.end_span ();
  Trace.end_span ();
  Alcotest.(check int) "second stray counted" 2 (Trace.unbalanced_ends ());
  Alcotest.(check int) "balanced pair kept" 2 (List.length (Trace.events ()));
  Trace.disable ()

let test_exception_closes_span () =
  reset_tracing ();
  Trace.enable_memory ();
  (try Trace.with_span "boom" (fun () -> failwith "no") with Failure _ -> ());
  Alcotest.(check int) "span closed on exception" 0 (Trace.open_spans ());
  (match List.rev (Trace.events ()) with
   | e :: _ ->
     Alcotest.(check bool) "end event carries error arg" true
       (List.mem_assoc "error" e.Trace.args)
   | [] -> Alcotest.fail "no events");
  Trace.disable ()

let test_forwarding () =
  reset_tracing ();
  Trace.enable_memory ();
  Trace.set_pid 1;
  (* what a forked worker does *)
  Trace.on_fork ~pid:42;
  Trace.with_span "task" (fun () -> ());
  let evs = Trace.drain () in
  Alcotest.(check int) "drained both events" 2 (Array.length evs);
  Array.iter
    (fun e ->
      Alcotest.(check int) "worker pid stamped" 42 e.Trace.pid)
    evs;
  Alcotest.(check int) "drain clears the ring" 0
    (List.length (Trace.events ()));
  (* what the parent does with the marshalled batch *)
  Trace.emit_events evs;
  Alcotest.(check int) "replayed in parent sink" 2
    (List.length (Trace.events ()));
  Trace.disable ()

let test_json_deterministic () =
  reset_tracing ();
  Clock.set (Clock.fake ());
  Trace.enable_memory ();
  Trace.set_pid 7;
  Trace.begin_span ~cat:"t" ~args:[ ("k", Trace.Int 1) ] "s";
  Trace.instant ~cat:"t" "mark";
  Trace.end_span ();
  Alcotest.(check string) "chrome trace json is byte-deterministic"
    ("[\n\
      {\"name\":\"s\",\"cat\":\"t\",\"ph\":\"B\",\"ts\":1000.000,\"pid\":7,\
       \"tid\":0,\"args\":{\"k\":1}},\n\
      {\"name\":\"mark\",\"cat\":\"t\",\"ph\":\"i\",\"ts\":2000.000,\"pid\":7,\
       \"tid\":0},\n\
      {\"name\":\"s\",\"cat\":\"t\",\"ph\":\"E\",\"ts\":3000.000,\"pid\":7,\
       \"tid\":0}\n\
      ]\n")
    (Trace.to_json ());
  Trace.disable ();
  Trace.set_pid 0

let test_ring_drops_oldest () =
  reset_tracing ();
  Trace.enable_memory ~capacity:16 ();
  for i = 1 to 20 do
    Trace.instant (Printf.sprintf "i%d" i)
  done;
  Alcotest.(check int) "ring keeps capacity" 16
    (List.length (Trace.events ()));
  Alcotest.(check int) "overwrites counted" 4 (Trace.dropped_events ());
  (match Trace.events () with
   | e :: _ -> Alcotest.(check string) "oldest survivor" "i5" e.Trace.name
   | [] -> Alcotest.fail "no events");
  Trace.disable ()

(* ------------------------------------------------------------------ *)
(* Json *)

module Json = Obs.Json

(* what a writer printed parses back to a value that prints the same
   bytes, and no strict prefix of it (less its final newline) parses *)
let check_round_trip ~print label text =
  Alcotest.(check string) (label ^ ": round trip") text
    (print (Json.parse text));
  let body = String.trim text in
  for k = 0 to String.length body - 1 do
    match Json.parse (String.sub body 0 k) with
    | _ -> Alcotest.failf "%s: the first %d bytes parsed" label k
    | exception Json.Error _ -> ()
  done

let test_json_spelling () =
  let line v = Json.to_line v in
  Alcotest.(check (list string)) "one float spelling"
    [ "3"; "-0.25"; "0.1"; "1e+15"; "1.23457e-07"; "\"nan\""; "\"inf\"";
      "\"-inf\""; "1.500"; "2"; "\"inf\"" ]
    (List.map line
       [ Json.num 3.0; Json.num (-0.25); Json.num 0.1; Json.num 1e15;
         Json.num 1.234567e-7; Json.num Float.nan; Json.num Float.infinity;
         Json.num Float.neg_infinity; Json.fixed 3 1.5; Json.fixed 0 2.0;
         Json.fixed 2 Float.infinity ]);
  Alcotest.(check string) "one string escaper" {|"q\"b\\s\nt\u0009c\u0001é"|}
    (line (Json.Str "q\"b\\s\nt\tc\001é"));
  Alcotest.(check string) "compact line" {|{"a":[1,{"b":null}],"c":false}|}
    (line
       Json.(
         Obj [ ("a", List [ int 1; Obj [ ("b", Null) ] ]); ("c", Bool false) ]))

let test_json_doc_layout () =
  Alcotest.(check string) "to_doc layout"
    "{\n\
    \  \"name\": \"x\",\n\
    \  \"shape\": {\"w\": 2, \"tags\": [\"a\", \"b\"]},\n\
    \  \"sizes\": [1, 2.50, -3],\n\
    \  \"rows\": [\n\
    \    {\"id\": 0, \"ok\": true},\n\
    \    {\"id\": 1, \"ok\": null}\n\
    \  ],\n\
    \  \"none\": [\n\
    \  ]\n\
     }\n"
    Json.(
      to_doc
        (Obj
           [
             ("name", Str "x");
             ( "shape",
               Obj [ ("w", int 2); ("tags", List [ Str "a"; Str "b" ]) ] );
             ("sizes", List [ int 1; fixed 2 2.5; int (-3) ]);
             ( "rows",
               List
                 [ Obj [ ("id", int 0); ("ok", Bool true) ];
                   Obj [ ("id", int 1); ("ok", Null) ] ] );
             ("none", List []);
           ]))

let nasty = "q\"b\\s\nt\tc\001"

let test_json_round_trips () =
  check_round_trip ~print:Json.to_line "trace event"
    (Trace.event_to_json
       {
         Trace.ph = Trace.I;
         name = nasty;
         cat = "t";
         ts = 0.0123456;
         pid = 3;
         args =
           [ (nasty, Trace.Str nasty); ("i", Trace.Int (-4));
             ("f", Trace.Float 2.5); ("g", Trace.Float 1e20);
             ("nan", Trace.Float Float.nan); ("b", Trace.Bool true) ];
       });
  Metrics.reset ();
  Metrics.incr ~by:24 (Metrics.counter "t.json.c");
  Metrics.set (Metrics.gauge "t.json.nan") Float.nan;
  List.iter (Metrics.observe (Metrics.histogram "t.json.h")) [ 0.25; 3.0; 1e9 ];
  let export = Metrics.to_jsonl () in
  Metrics.reset ();
  (* an empty histogram, as the writer spells one *)
  let empty_h =
    {|{"type":"histogram","name":"t.json.empty","unit":"ms","count":0,"sum":0,"min":"inf","max":"-inf","p50":"nan","p90":"nan","p99":"nan"}|}
  in
  List.iter
    (fun l ->
      if l <> "" then check_round_trip ~print:Json.to_line "metric line" l)
    (empty_h :: String.split_on_char '\n' export);
  check_round_trip ~print:Json.to_doc "bench report"
    {|{
  "schema": "icc-bench-arch/2",
  "configs": ["amd-like", "c6713-like", "embedded"],
  "reps": 5,
  "identical": true,
  "workloads": [
    {"name": "adpcm", "base_ms": 22.441, "speedup_cold": 1.10, "trace_words": 362260},
    {"name": "fir", "base_ms": 46.954, "speedup_cold": 0.80, "trace_words": 1253143}
  ],
  "speedups": [
  ],
  "total_base_ms": 746.9
}
|}

let test_json_parse_strict () =
  let refused s =
    match Json.parse s with
    | _ -> Alcotest.failf "%S parsed" s
    | exception Json.Error _ -> ()
  in
  List.iter refused
    [ ""; "{} {}"; "[1,]"; "{\"a\":1,}"; "01"; "1."; "+1"; ".5"; "nan";
      "\"a\tb\""; "\"\\x\""; "\"\\ud800\""; "{\"a\" 1}"; "tru" ];
  Alcotest.(check string) "\\u escapes decode to UTF-8"
    "\xc3\xa9\xf0\x9f\x98\x80/\b"
    (Json.to_str (Json.parse {|"\u00e9\ud83d\ude00\/\b"|}))

let test_json_parse_trace () =
  let ev = {|{"name":"a","ph":"i","ts":1.000,"pid":1,"tid":0}|} in
  let check label text (n, truncated) =
    let evs, t = Json.parse_trace text in
    Alcotest.(check (pair int bool)) label (n, truncated) (List.length evs, t)
  in
  check "closed array" ("[\n" ^ ev ^ ",\n" ^ ev ^ "\n]\n") (2, false);
  check "empty array" "[]" (0, false);
  check "missing ]" ("[\n" ^ ev ^ ",\n" ^ ev) (2, true);
  check "missing ] after a comma" ("[\n" ^ ev ^ ",\n") (1, true);
  check "only the opening [" "[\n" (0, true);
  match Json.parse_trace ("[\n" ^ ev ^ ",\n" ^ String.sub ev 0 20) with
  | _ -> Alcotest.fail "a torn last event parsed"
  | exception Json.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* crash safety: the streaming sink under an injected mid-sweep kill *)

let substr_count hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_crash_leaves_valid_trace () =
  reset_tracing ();
  let dir = Filename.get_temp_dir_name () in
  let stamp = Printf.sprintf "%d-%d" (Unix.getpid ()) (Random.bits ()) in
  let trace_path = Filename.concat dir ("obs-crash-" ^ stamp ^ ".json") in
  let sweep_path = Filename.concat dir ("obs-crash-" ^ stamp ^ ".log") in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ trace_path; sweep_path ])
    (fun () ->
      flush stdout;
      flush stderr;
      (match Unix.fork () with
       | 0 ->
         (try
            Clock.set (Clock.fake ());
            let oc = open_out trace_path in
            Trace.enable_stream oc;
            Engine.Faults.install (Engine.Faults.parse_exn "sweep-crash@1");
            ignore
              (Engine.Journal.run ~path:sweep_path ~key:"k" ~chunk_size:4
                 ~n:14 (fun lo hi ->
                   Array.init (hi - lo) (fun i -> float_of_int (lo + i))))
          with _ -> ());
         Unix._exit 99 (* only reached if the injected kill did not fire *)
       | pid -> (
         match snd (Unix.waitpid [] pid) with
         | Unix.WEXITED 21 -> ()
         | st ->
           Alcotest.failf "child: expected injected exit 21, got %s"
             (match st with
              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
              | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s)));
      let ic = open_in_bin trace_path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* the kill skipped at_exit, so no "]": still a loadable trace —
         starts as an array, ends on a complete object *)
      Alcotest.(check bool) "starts as a JSON array" true
        (String.length s > 2 && s.[0] = '[');
      Alcotest.(check bool) "no closing bracket (crash, not exit)" false
        (String.contains s ']');
      let trimmed = String.trim s in
      Alcotest.(check bool) "ends on a complete object" true
        (trimmed <> "[" && trimmed.[String.length trimmed - 1] = '}');
      Alcotest.(check bool) "the sweep's spans were flushed" true
        (substr_count s "journal.chunk" >= 2);
      Alcotest.(check int) "every begun span also ended"
        (substr_count s "\"ph\":\"B\"")
        (substr_count s "\"ph\":\"E\""))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket math" `Quick test_bucket_math;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "kinds" `Quick test_kinds;
          Alcotest.test_case "deterministic table" `Quick
            test_table_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "unbalanced end" `Quick test_unbalanced_end;
          Alcotest.test_case "exception closes span" `Quick
            test_exception_closes_span;
          Alcotest.test_case "cross-process forwarding" `Quick
            test_forwarding;
          Alcotest.test_case "deterministic json" `Quick
            test_json_deterministic;
          Alcotest.test_case "ring drops oldest" `Quick
            test_ring_drops_oldest;
        ] );
      ( "json",
        [
          Alcotest.test_case "number and string spelling" `Quick
            test_json_spelling;
          Alcotest.test_case "document layout" `Quick test_json_doc_layout;
          Alcotest.test_case "writers round-trip byte for byte" `Quick
            test_json_round_trips;
          Alcotest.test_case "strict parse" `Quick test_json_parse_strict;
          Alcotest.test_case "trace arrays" `Quick test_json_parse_trace;
        ] );
      ( "crash safety",
        [
          Alcotest.test_case "mid-sweep kill leaves valid trace" `Quick
            test_crash_leaves_valid_trace;
        ] );
    ]
