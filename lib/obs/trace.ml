(* Span tracer.  See trace.mli for the model; the implementation notes
   that matter:

   - [enabled] is a plain bool ref tested by every emit helper, so the
     disabled cost at an instrumentation site is one load and branch.
   - The memory sink is a ring: a fixed event array plus a write cursor;
     once full, new events overwrite the oldest (counted in [dropped]).
   - The stream sink writes ",\n{event}" with the comma *before* every
     event but the first and flushes per event.  At any crash point the
     file therefore ends after a complete JSON object, which the Chrome
     trace_event format accepts (the closing "]" is optional by spec —
     that is the property the fault-injection test exercises).
   - Nesting is tracked as a stack of open span names so an unmatched
     end_span can be detected and dropped instead of corrupting the
     B/E pairing of everything above it. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = B | E | I | C

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : float;
  pid : int;
  args : (string * arg) list;
}

let dummy_event = { ph = I; name = ""; cat = ""; ts = 0.0; pid = 0; args = [] }

type ring = {
  buf : event array;
  mutable next : int;     (* total events ever written *)
  mutable dropped : int;  (* events overwritten *)
}

type sink = Off | Memory of ring | Stream of out_channel

let sink = ref Off
let on = ref false
let epoch = ref 0.0
let pid = ref 0
let stack : (string * string) list ref = ref [] (* (name, cat) of open spans *)
let bad_ends = ref 0
let streamed = ref 0 (* events written to the current stream sink *)

let enabled () = !on
let set_pid p = pid := p
let open_spans () = List.length !stack
let unbalanced_ends () = !bad_ends

let dropped_events () =
  match !sink with Memory r -> r.dropped | _ -> 0

let reset_side_state () =
  stack := [];
  bad_ends := 0;
  streamed := 0

let enable_memory ?(capacity = 65536) () =
  let capacity = max 16 capacity in
  sink := Memory { buf = Array.make capacity dummy_event; next = 0; dropped = 0 };
  epoch := Clock.now ();
  reset_side_state ();
  on := true

let enable_stream oc =
  output_string oc "[\n";
  flush oc;
  sink := Stream oc;
  epoch := Clock.now ();
  reset_side_state ();
  on := true

let disable () =
  on := false;
  sink := Off;
  reset_side_state ()

(* ------------------------------------------------------------------ *)
(* JSON *)

let json_of_arg : arg -> Json.t = function
  | Int i -> Json.int i
  | Float f -> Json.num f
  | Bool x -> Json.Bool x
  | Str s -> Json.Str s

let phase_letter = function B -> "B" | E -> "E" | I -> "i" | C -> "C"

let event_to_json (e : event) : string =
  let args =
    match e.args with
    | [] -> []
    | args ->
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]
  in
  Json.to_line
    (Json.Obj
       ([
          ("name", Json.Str e.name);
          ("cat", Json.Str (if e.cat = "" then "mira" else e.cat));
          ("ph", Json.Str (phase_letter e.ph));
          ("ts", Json.fixed 3 (e.ts *. 1e6));
          ("pid", Json.int e.pid);
          ("tid", Json.int 0);
        ]
       @ args))

(* ------------------------------------------------------------------ *)
(* emitting *)

let push (e : event) =
  match !sink with
  | Off -> ()
  | Memory r ->
    let cap = Array.length r.buf in
    if r.next >= cap then r.dropped <- r.dropped + 1;
    r.buf.(r.next mod cap) <- e;
    r.next <- r.next + 1
  | Stream oc ->
    if !streamed > 0 then output_string oc ",\n";
    output_string oc (event_to_json e);
    incr streamed;
    flush oc

let now_rel () = Clock.now () -. !epoch

let mk ?(cat = "") ?(args = []) ph name =
  { ph; name; cat; ts = now_rel (); pid = !pid; args }

let begin_span ?(cat = "") ?args name =
  if !on then begin
    stack := (name, cat) :: !stack;
    push (mk ~cat ?args B name)
  end

(* the end event inherits the begin's name and category, so B/E pairs
   stay matched and a category tally sees spans once, not twice *)
let end_span ?(args = []) () =
  if !on then
    match !stack with
    | [] -> incr bad_ends
    | (name, cat) :: rest ->
      stack := rest;
      push (mk ~cat ~args E name)

let with_span ?cat ?args name f =
  if not !on then f ()
  else begin
    begin_span ?cat ?args name;
    match f () with
    | v ->
      end_span ();
      v
    | exception e ->
      end_span ~args:[ ("error", Str (Printexc.to_string e)) ] ();
      raise e
  end

let instant ?cat ?args name = if !on then push (mk ?cat ?args I name)

let counter ?cat name series =
  if !on then
    push (mk ?cat ~args:(List.map (fun (k, v) -> (k, Float v)) series) C name)

(* ------------------------------------------------------------------ *)
(* memory-sink access, draining, forwarding *)

let events () =
  match !sink with
  | Memory r ->
    let cap = Array.length r.buf in
    let n = min r.next cap in
    let first = r.next - n in
    List.init n (fun i -> r.buf.((first + i) mod cap))
  | _ -> []

let drain () =
  let evs = Array.of_list (events ()) in
  (match !sink with
   | Memory r ->
     r.next <- 0;
     r.dropped <- 0
   | _ -> ());
  evs

let emit_events evs = if !on then Array.iter push evs

let on_fork ~pid:p =
  if !on then begin
    (* a private ring: the inherited stream channel belongs to the
       parent, and the inherited buffer contents are the parent's too *)
    sink := Memory { buf = Array.make 16384 dummy_event; next = 0; dropped = 0 };
    reset_side_state ();
    pid := p
  end

(* ------------------------------------------------------------------ *)
(* export *)

let to_json () =
  "[\n" ^ String.concat ",\n" (List.map event_to_json (events ())) ^ "\n]\n"

let finish () =
  match !sink with
  | Stream oc ->
    output_string oc "\n]\n";
    flush oc;
    (* the terminator is written once; further events would corrupt the
       document, so tracing ends here *)
    on := false;
    sink := Off
  | _ -> ()
