(* Deterministic fault injection: a process-global plan of
   (point, occurrence, arg) directives consulted by name.  Decisions are
   a pure function of (point, occurrence number), so a fixed plan makes
   every failure mode reproducible.  See faults.mli for the spec
   grammar and the catalogue of points. *)

exception Injected of string

type occurrence = Nth of int | From of int | Every

type directive = { point : string; occ : occurrence; arg : int option }

type plan = directive list

type hit = { arg : int option }

let none : plan = []

(* the catalogue; parse rejects unknown names so a typo in a spec fails
   loudly instead of silently injecting nothing *)
let known_points =
  [
    "worker-crash"; "worker-hang"; "spawn-fail"; "torn-append";
    "flip-append"; "fail-append"; "stale-lock"; "compact-crash";
    "sweep-crash"; "sweep-torn"; "tstore-write";
  ]

let parse_directive tok =
  let ( let* ) = Result.bind in
  let* point, rest =
    match String.index_opt tok '@' with
    | None -> Error (Printf.sprintf "directive %S: missing '@occurrence'" tok)
    | Some i ->
      Ok
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
  in
  let* () =
    if List.mem point known_points then Ok ()
    else
      Error
        (Printf.sprintf "unknown injection point %S (known: %s)" point
           (String.concat ", " known_points))
  in
  let* occ_s, arg =
    match String.index_opt rest '=' with
    | None -> Ok (rest, None)
    | Some i -> (
      let a = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt a with
      | Some v -> Ok (String.sub rest 0 i, Some v)
      | None -> Error (Printf.sprintf "directive %S: bad argument %S" tok a))
  in
  let* occ =
    match occ_s with
    | "*" -> Ok Every
    | s when String.length s > 1 && s.[String.length s - 1] = '+' -> (
      match int_of_string_opt (String.sub s 0 (String.length s - 1)) with
      | Some n when n >= 0 -> Ok (From n)
      | _ -> Error (Printf.sprintf "directive %S: bad occurrence %S" tok s))
    | s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok (Nth n)
      | _ -> Error (Printf.sprintf "directive %S: bad occurrence %S" tok s))
  in
  Ok { point; occ; arg }

let parse spec =
  let toks =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if toks = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc tok ->
        match (acc, parse_directive tok) with
        | Error _, _ -> acc
        | Ok ds, Ok d -> Ok (d :: ds)
        | Ok _, Error e -> Error e)
      (Ok []) toks
    |> Result.map List.rev

let parse_exn spec =
  match parse spec with
  | Ok p -> p
  | Error e -> invalid_arg ("Faults.parse: " ^ e)

let plan : plan ref = ref []
let counts : (string, int) Hashtbl.t = Hashtbl.create 8

let install p =
  plan := p;
  Hashtbl.reset counts

let clear () = install []
let active () = !plan <> []

let install_from_env () =
  match Sys.getenv_opt "MIRA_FAULTS" with
  | None | Some "" -> ()
  | Some spec -> install (parse_exn spec)

let matches n = function
  | Every -> true
  | Nth k -> n = k
  | From k -> n >= k

let consult ?index point =
  match !plan with
  | [] -> None
  | directives ->
    let n =
      match index with
      | Some i -> i
      | None ->
        let c = Option.value (Hashtbl.find_opt counts point) ~default:0 in
        Hashtbl.replace counts point (c + 1);
        c
    in
    List.find_map
      (fun d ->
        if d.point = point && matches n d.occ then Some { arg = d.arg }
        else None)
      directives

let fires ?index point = consult ?index point <> None

let with_plan p f =
  let saved_plan = !plan in
  let saved_counts = Hashtbl.copy counts in
  install p;
  Fun.protect
    ~finally:(fun () ->
      plan := saved_plan;
      Hashtbl.reset counts;
      Hashtbl.iter (Hashtbl.replace counts) saved_counts)
    f
