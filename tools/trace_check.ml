(* trace_check — validate a Chrome trace_event JSON file.

   Checks the properties the observability layer promises:
   - the document is a JSON array of event objects (a missing closing
     "]" is accepted, as the trace_event spec allows: a crashed run
     truncates after a complete object);
   - every event has "name", "ph", "ts", "pid" of the right types and a
     phase letter we emit (B, E, i, C, plus the "M" metadata events
     the trace merger adds);
   - "E" events never outnumber the "B" events above them per pid (an
     unmatched end would corrupt the viewer's nesting).

   With --merged the file is additionally held to the promises of
   [miracc trace-merge] output: at least two distinct pids, every
   process that announced a run id (the "trace.run" instants) announced
   the same one, and at least two did — so the file really is one
   correlated multi-process run, not a concatenation of strangers.

   Prints a one-line summary plus the sorted category set, so CI can
   assert which subsystems showed up.  Exit 1 on any violation. *)

module Json = Obs.Json

exception Bad of string

let check ~merged path =
  let events, truncated =
    try Json.parse_trace (Json.read_file path)
    with Json.Error msg -> raise (Bad msg)
  in
  (* per-event shape + span-balance accounting *)
  let counts = Hashtbl.create 4 in
  let cats = Hashtbl.create 16 in
  let depth : (int, int ref) Hashtbl.t = Hashtbl.create 4 in
  (* pid -> run id announced by its "trace.run" instant *)
  let runs : (int, string) Hashtbl.t = Hashtbl.create 4 in
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
      let name = str "name" in
      ignore (num "ts");
      let pid = int_of_float (num "pid") in
      (match Json.mem "cat" ev with
       | Some (Json.Str c) -> Hashtbl.replace cats c ()
       | _ -> ());
      (match Json.mem "args" ev with
       | None | Some (Json.Obj _) -> ()
       | Some _ -> raise (Bad (Printf.sprintf "event %d: args not an object" i)));
      if name = "trace.run" then begin
        match Json.mem "args" ev with
        | Some (Json.Obj fs) ->
          (match List.assoc_opt "id" fs with
           | Some (Json.Str id) -> Hashtbl.replace runs pid id
           | _ ->
             raise (Bad (Printf.sprintf "event %d: trace.run without id" i)))
        | _ -> raise (Bad (Printf.sprintf "event %d: trace.run without args" i))
      end;
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
       | "i" | "C" | "M" -> ()
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
  Printf.printf "categories: %s\n" (String.concat ", " cat_list);
  if merged then begin
    if Hashtbl.length depth < 2 then
      raise (Bad (Printf.sprintf "merged trace has %d pid(s), want >= 2"
                    (Hashtbl.length depth)));
    let announced =
      Hashtbl.fold (fun pid id acc -> (pid, id) :: acc) runs []
      |> List.sort compare
    in
    (match announced with
     | [] | [ _ ] ->
       raise (Bad (Printf.sprintf
                     "merged trace: %d process(es) announced a run id, want >= 2"
                     (List.length announced)))
     | (_, first) :: rest ->
       List.iter
         (fun (pid, id) ->
           if id <> first then
             raise (Bad (Printf.sprintf
                           "merged trace: pid %d announced run %s, others %s"
                           pid id first)))
         rest;
       Printf.printf "merged OK: run %s announced by %d processes\n" first
         (List.length announced))
  end

let () =
  let merged, path =
    match Sys.argv with
    | [| _; path |] -> (false, Some path)
    | [| _; "--merged"; path |] | [| _; path; "--merged" |] -> (true, Some path)
    | _ -> (false, None)
  in
  match path with
  | Some path -> (
    try check ~merged path with
    | Bad msg ->
      Printf.eprintf "trace_check: %s: %s\n" path msg;
      exit 1
    | Sys_error e ->
      Printf.eprintf "trace_check: %s\n" e;
      exit 1)
  | None ->
    prerr_endline "usage: trace_check [--merged] FILE.json";
    exit 2
