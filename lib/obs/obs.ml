(* Mira.Obs — the unified observability layer: Clock (injectable time
   source), Trace (Chrome trace_event span tracer), Metrics (counter /
   gauge / histogram registry), Json (the one writer and reader of every
   JSON document), and the one combined helper every instrumentation
   site uses.

   The design contract is pay-for-use: with tracing disabled and
   [Metrics.timing] off, [span] is two boolean loads and a closure call,
   so the hot paths (per-pass application, per-simulation) keep their
   benchmarked throughput.  See DESIGN.md "Observability". *)

module Clock = Clock
module Json = Json
module Trace = Trace
module Metrics = Metrics

(* [span ~cat ?hist name f]: a trace span around [f] when tracing is
   enabled, and/or a duration sample (milliseconds) into [hist] when
   metric timing is on.  Exceptions propagate; the span still closes and
   the duration is still recorded. *)
let span ?cat ?hist name f =
  let timed = !Metrics.timing && hist <> None in
  if not (timed || Trace.enabled ()) then f ()
  else begin
    let t0 = if timed then Clock.now () else 0.0 in
    Trace.begin_span ?cat name;
    let record () =
      match hist with
      | Some h when timed ->
        Metrics.observe h ((Clock.now () -. t0) *. 1e3)
      | _ -> ()
    in
    match f () with
    | v ->
      Trace.end_span ();
      record ();
      v
    | exception e ->
      Trace.end_span ~args:[ ("error", Trace.Str (Printexc.to_string e)) ] ();
      record ();
      raise e
  end

(* variant for sites that want result-dependent args on the end event *)
let span_with ?cat ?hist name ~(end_args : 'a -> (string * Trace.arg) list)
    (f : unit -> 'a) : 'a =
  let timed = !Metrics.timing && hist <> None in
  if not (timed || Trace.enabled ()) then f ()
  else begin
    let t0 = if timed then Clock.now () else 0.0 in
    Trace.begin_span ?cat name;
    let record () =
      match hist with
      | Some h when timed ->
        Metrics.observe h ((Clock.now () -. t0) *. 1e3)
      | _ -> ()
    in
    match f () with
    | v ->
      Trace.end_span ~args:(end_args v) ();
      record ();
      v
    | exception e ->
      Trace.end_span ~args:[ ("error", Trace.Str (Printexc.to_string e)) ] ();
      record ();
      raise e
  end
