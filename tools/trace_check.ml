(* trace_check — validate a Chrome trace_event JSON file.

   Checks the properties the observability layer promises:
   - the document is a JSON array of event objects (a missing closing
     "]" is accepted, as the trace_event spec allows: a crashed run
     truncates after a complete object);
   - every event has "name", "ph", "ts", "pid" of the right types and a
     phase letter we emit (B, E, i, C);
   - "E" events never outnumber the "B" events above them per pid (an
     unmatched end would corrupt the viewer's nesting).

   Prints a one-line summary plus the sorted category set, so CI can
   assert which subsystems showed up.  Exit 1 on any violation. *)

module Json = Obs.Json

exception Bad of string

let check path =
  let events, truncated =
    try Json.parse_trace (Json.read_file path)
    with Json.Error msg -> raise (Bad msg)
  in
  (* per-event shape + span-balance accounting *)
  let counts = Hashtbl.create 4 in
  let cats = Hashtbl.create 16 in
  let depth : (int, int ref) Hashtbl.t = Hashtbl.create 4 in
  let bump tbl k =
    match Hashtbl.find_opt tbl k with
    | Some r -> incr r
    | None -> Hashtbl.replace tbl k (ref 1)
  in
  List.iteri
    (fun i ev ->
      (match ev with
       | Json.Obj _ -> ()
       | _ -> raise (Bad (Printf.sprintf "event %d is not an object" i)));
      let str k =
        match Json.mem k ev with
        | Some (Json.Str v) -> v
        | _ -> raise (Bad (Printf.sprintf "event %d: missing string %S" i k))
      in
      let num k =
        match Json.mem k ev with
        | Some (Json.Num _ as v) -> Json.to_float v
        | _ -> raise (Bad (Printf.sprintf "event %d: missing number %S" i k))
      in
      let ph = str "ph" in
      ignore (str "name");
      ignore (num "ts");
      let pid = int_of_float (num "pid") in
      (match Json.mem "cat" ev with
       | Some (Json.Str c) -> Hashtbl.replace cats c ()
       | _ -> ());
      (match Json.mem "args" ev with
       | None | Some (Json.Obj _) -> ()
       | Some _ -> raise (Bad (Printf.sprintf "event %d: args not an object" i)));
      let d =
        match Hashtbl.find_opt depth pid with
        | Some r -> r
        | None ->
          let r = ref 0 in
          Hashtbl.replace depth pid r;
          r
      in
      (match ph with
       | "B" -> incr d
       | "E" ->
         if !d = 0 then
           raise (Bad (Printf.sprintf "event %d: E without open B (pid %d)" i pid));
         decr d
       | "i" | "C" -> ()
       | p -> raise (Bad (Printf.sprintf "event %d: unknown phase %S" i p)));
      bump counts ph)
    events;
  let count ph =
    match Hashtbl.find_opt counts ph with Some r -> !r | None -> 0
  in
  let unclosed = Hashtbl.fold (fun _ r acc -> acc + !r) depth 0 in
  let cat_list =
    List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) cats [])
  in
  Printf.printf "trace OK: %d events (B=%d E=%d i=%d C=%d), %d pids, unclosed %d%s\n"
    (List.length events) (count "B") (count "E") (count "i") (count "C")
    (Hashtbl.length depth) unclosed
    (if truncated then ", truncated" else "");
  Printf.printf "categories: %s\n" (String.concat ", " cat_list)

let () =
  match Sys.argv with
  | [| _; path |] -> (
    try check path with
    | Bad msg ->
      Printf.eprintf "trace_check: %s: %s\n" path msg;
      exit 1
    | Sys_error e ->
      Printf.eprintf "trace_check: %s\n" e;
      exit 1)
  | _ ->
    prerr_endline "usage: trace_check FILE.json";
    exit 2
