(* The per-layer fold on hand-built traces: nested spans, a forwarded
   worker pid inside a pool batch, serial pool tasks on the parent, and
   an unbalanced end event.  Times are in seconds, as the tracer keeps
   them; the fold reports milliseconds. *)

module T = Obs.Trace

let ev ?(args = []) ph name cat ts pid = { T.ph; name; cat; ts; pid; args }
let b ?args = ev ?args T.B
let e ?args = ev ?args T.E
let close = Alcotest.(check (float 1e-6))

(* parent 1: root [0, 10] holding a frontend span [1, 3] with a nested
   passes span [1.5, 2], and a pool batch [4, 8] of two tasks on two
   workers; worker 7 runs a task [4.5, 7.5] with flatsim [5, 7] inside,
   worker 8 a task [4.5, 5.5].  Worker spans arrive forwarded between
   the batch's begin and end.  An end on worker 9 has nothing open. *)
let trace =
  [ b "bench.region" "bench" 0.0 1;
    b "frontend.parse" "frontend" 1.0 1;
    b "pass.cse" "passes" 1.5 1;
    e "pass.cse" "passes" 2.0 1;
    e "frontend.parse" "frontend" 3.0 1;
    b ~args:[ ("tasks", T.Int 2); ("jobs", T.Int 2) ] "pool.batch" "pool" 4.0 1;
    b "pool.task" "pool" 4.5 7;
    b "flatsim.run" "flatsim" 5.0 7;
    e ~args:[ ("steps", T.Int 1000) ] "flatsim.run" "flatsim" 7.0 7;
    e "pool.task" "pool" 7.5 7;
    b "pool.task" "pool" 4.5 8;
    e "pool.task" "pool" 5.5 8;
    e "flatsim.run" "flatsim" 6.0 9;
    e "pool.batch" "pool" 8.0 1;
    e "bench.region" "bench" 10.0 1 ]

let test_nested_self () =
  let f = Fold.fold ~root:"bench.region" trace in
  close "wall" 10000.0 f.Fold.wall_ms;
  (* root covers [1,3] and [4,8]: 4 s under no other span *)
  close "unattributed" 4000.0 f.Fold.unattributed_ms;
  close "frontend self excludes its child" 1500.0 (Fold.layer_ms f "frontend");
  close "passes" 500.0 (Fold.layer_ms f "passes");
  let fl = Fold.span f "flatsim.run" in
  Alcotest.(check int) "one flatsim span" 1 fl.Fold.calls;
  close "flatsim span self on the worker" 2000.0 fl.Fold.self_ms;
  close "arg sum" 1000.0 (Fold.arg_sum trace ~span:"flatsim.run" ~arg:"steps")

let test_worker_attribution () =
  let f = Fold.fold ~root:"bench.region" trace in
  (* batch: 4 s on 2 workers = 8 s capacity, 3 + 1 s busy: half the
     parent's 4 s wait is covered by worker work, split 2 : 2 between
     flatsim (2 s self) and pool.task self (1 + 1 s); the other half is
     pool idle time *)
  close "wait" 4000.0 f.Fold.pool_wait_ms;
  close "busy" 4000.0 f.Fold.pool_busy_ms;
  close "utilization" 0.5 (Fold.utilization f);
  close "flatsim share of the wait" 1000.0 (Fold.layer_ms f "flatsim");
  close "pool: worker task self share plus idle" 3000.0 (Fold.layer_ms f "pool");
  Alcotest.(check int) "one batch" 1 f.Fold.pool_batches;
  Alcotest.(check int) "two tasks" 2 f.Fold.pool_tasks;
  let sum =
    List.fold_left (fun a (_, v) -> a +. v) f.Fold.unattributed_ms f.Fold.layers
  in
  close "layers plus unattributed = wall" f.Fold.wall_ms sum

let test_unbalanced () =
  let f = Fold.fold ~root:"bench.region" trace in
  Alcotest.(check int) "dropped end" 1 f.Fold.unbalanced_ends;
  Alcotest.(check int) "nothing left open" 0 f.Fold.unclosed;
  let g =
    Fold.fold ~root:"bench.region" (List.filteri (fun i _ -> i < 3) trace)
  in
  Alcotest.(check int) "open spans counted" 3 g.Fold.unclosed;
  close "no wall without a closed root" 0.0 g.Fold.wall_ms

let test_serial_batch () =
  (* a one-task batch runs on the parent: its task is a child span, so
     the parent's wait is only the batch's own overhead *)
  let t =
    [ b "bench.region" "bench" 0.0 1;
      b ~args:[ ("tasks", T.Int 1); ("jobs", T.Int 2) ] "pool.batch" "pool" 1.0 1;
      b "pool.task" "pool" 1.25 1;
      b "replay.run" "trace" 1.25 1;
      e "replay.run" "trace" 2.0 1;
      e "pool.task" "pool" 2.0 1;
      e "pool.batch" "pool" 2.5 1;
      e "bench.region" "bench" 3.0 1 ]
  in
  let f = Fold.fold ~root:"bench.region" t in
  close "replay" 750.0 (Fold.layer_ms f "replay");
  close "pool: batch overhead" 750.0 (Fold.layer_ms f "pool");
  close "wait" 750.0 f.Fold.pool_wait_ms;
  close "utilization" 0.5 (Fold.utilization f);
  close "unattributed" 1500.0 f.Fold.unattributed_ms

let test_layer_of () =
  let l cat name = Fold.layer_of ~cat ~name in
  Alcotest.(check string) "mtrace" "mtrace" (l "trace" "mtrace.generate");
  Alcotest.(check string) "replay" "replay" (l "trace" "replay.run_grid");
  Alcotest.(check string) "sim" "flatsim" (l "sim" "refsim.run");
  Alcotest.(check string) "category" "engine" (l "engine" "engine.batch")

let () =
  Alcotest.run "perfbench"
    [ ( "fold",
        [ Alcotest.test_case "nested self time" `Quick test_nested_self;
          Alcotest.test_case "forwarded worker attribution" `Quick
            test_worker_attribution;
          Alcotest.test_case "unbalanced end and open spans" `Quick
            test_unbalanced;
          Alcotest.test_case "serial batch on the parent" `Quick
            test_serial_batch;
          Alcotest.test_case "layer mapping" `Quick test_layer_of ] ) ]
