(* The knowledge base (paper Sec. III-E): a standardized store for
   characterizations (static feature vectors + dynamic performance-counter
   vectors per program/architecture) and optimization experiments
   (program, architecture, optimization sequence, measured cycles and code
   size).  The paper argues for a documented standard format so tools can
   interoperate; ours is the line-oriented text format described below.

   File format (version header, then one record per line, '|' separated,
   ',' separated key=value pairs inside fields):

     mira-kb 1
     char|<prog>|<arch>|<o0_cycles>|f:name=v,...|c:name=v,...
     exp|<prog>|<arch>|<pass,pass,...>|<cycles>|<code_size>

   Values are printed with %h (hex floats) so save/load round-trips
   exactly. *)

type characterization = {
  prog : string;
  arch : string;
  o0_cycles : int;
  features : (string * float) list;   (* static code features *)
  counters : (string * float) list;   (* per-instruction normalized *)
}

type experiment = {
  eprog : string;
  earch : string;
  seq : Passes.Pass.t list;
  cycles : int;
  code_size : int;
}

type t = {
  mutable chars : characterization list;
  mutable exps : experiment list;
}

let create () = { chars = []; exps = [] }

let add_characterization t c =
  (* newest wins for the same (prog, arch) *)
  t.chars <-
    c :: List.filter (fun c' -> not (c'.prog = c.prog && c'.arch = c.arch)) t.chars

let add_experiment t e = t.exps <- e :: t.exps

let characterization t ~prog ~arch =
  List.find_opt (fun c -> c.prog = prog && c.arch = arch) t.chars

let experiments t ~prog ~arch =
  List.filter (fun e -> e.eprog = prog && e.earch = arch) t.exps

let programs t =
  List.sort_uniq compare (List.map (fun c -> c.prog) t.chars)

let size t = List.length t.exps

(* best (lowest-cycles) experiment for a program/arch *)
let best t ~prog ~arch : experiment option =
  match experiments t ~prog ~arch with
  | [] -> None
  | es ->
    Some
      (List.fold_left
         (fun acc e -> if e.cycles < acc.cycles then e else acc)
         (List.hd es) es)

(* experiments within [within] (e.g. 1.05 = 5%) of the best for a program *)
let good_experiments t ~prog ~arch ~within : experiment list =
  match best t ~prog ~arch with
  | None -> []
  | Some b ->
    List.filter
      (fun e ->
        float_of_int e.cycles
        <= within *. float_of_int b.cycles)
      (experiments t ~prog ~arch)

(* the [k] best experiments for a program, optionally restricted to
   sequences of a given length (so fixed long pipelines in the KB do not
   crowd out the searchable space) *)
let top_experiments t ~prog ~arch ~k ?length () : experiment list =
  let es = experiments t ~prog ~arch in
  let es =
    match length with
    | Some l -> List.filter (fun e -> List.length e.seq = l) es
    | None -> es
  in
  es
  |> List.sort (fun a b -> compare a.cycles b.cycles)
  |> List.filteri (fun i _ -> i < k)

(* a knowledge base with one program held out: the leave-one-out protocol *)
let without_program t ~prog : t =
  {
    chars = List.filter (fun c -> c.prog <> prog) t.chars;
    exps = List.filter (fun e -> e.eprog <> prog) t.exps;
  }

(* ------------------------------------------------------------------ *)
(* serialization *)

exception Parse_error of string

let esc (s : string) =
  if String.contains s '|' || String.contains s '\n' || String.contains s ','
  then raise (Parse_error ("illegal character in name: " ^ s))
  else s

let kvs_to_string kvs =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%h" (esc k) v) kvs)

let kvs_of_string s =
  if String.trim s = "" then []
  else
    List.map
      (fun part ->
        match String.index_opt part '=' with
        | Some i ->
          let k = String.sub part 0 i in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          (match float_of_string_opt v with
           | Some f -> (k, f)
           | None -> raise (Parse_error ("bad float: " ^ v)))
        | None -> raise (Parse_error ("bad key=value: " ^ part)))
      (String.split_on_char ',' s)

let char_to_line c =
  Printf.sprintf "char|%s|%s|%d|f:%s|c:%s" (esc c.prog) (esc c.arch)
    c.o0_cycles
    (kvs_to_string c.features)
    (kvs_to_string c.counters)

let exp_to_line e =
  Printf.sprintf "exp|%s|%s|%s|%d|%d" (esc e.eprog) (esc e.earch)
    (Passes.Pass.sequence_to_string e.seq)
    e.cycles e.code_size

let strip_prefix ~prefix s =
  if String.length s >= String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
  then String.sub s (String.length prefix) (String.length s - String.length prefix)
  else raise (Parse_error ("expected prefix " ^ prefix ^ " in: " ^ s))

let line_of_string (line : string) : [ `Char of characterization | `Exp of experiment | `Skip ] =
  if String.trim line = "" then `Skip
  else
    match String.split_on_char '|' line with
    | [ "char"; prog; arch; cyc; f; c ] ->
      let o0_cycles =
        match int_of_string_opt cyc with
        | Some n -> n
        | None -> raise (Parse_error ("bad cycles: " ^ cyc))
      in
      `Char
        {
          prog;
          arch;
          o0_cycles;
          features = kvs_of_string (strip_prefix ~prefix:"f:" f);
          counters = kvs_of_string (strip_prefix ~prefix:"c:" c);
        }
    | [ "exp"; prog; arch; seq; cyc; sz ] ->
      let seq =
        match Passes.Pass.sequence_of_string seq with
        | Ok s -> s
        | Error e -> raise (Parse_error e)
      in
      let int_of s =
        match int_of_string_opt s with
        | Some n -> n
        | None -> raise (Parse_error ("bad int: " ^ s))
      in
      `Exp { eprog = prog; earch = arch; seq; cycles = int_of cyc; code_size = int_of sz }
    | _ -> raise (Parse_error ("unrecognized line: " ^ line))

let magic = "mira-kb 1"

let to_string (t : t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      Buffer.add_string buf (char_to_line c);
      Buffer.add_char buf '\n')
    (List.rev t.chars);
  List.iter
    (fun e ->
      Buffer.add_string buf (exp_to_line e);
      Buffer.add_char buf '\n')
    (List.rev t.exps);
  Buffer.contents buf

let of_string (s : string) : t =
  match String.split_on_char '\n' s with
  | [] | [ "" ] -> raise (Parse_error "empty knowledge base")
  | header :: rest ->
    if String.trim header <> magic then
      raise (Parse_error ("bad header: " ^ header));
    let t = create () in
    (* lists are stored newest-first and written via List.rev, so loading
       must prepend to preserve file order across round trips *)
    List.iter
      (fun line ->
        match line_of_string line with
        | `Char c -> t.chars <- c :: t.chars
        | `Exp e -> t.exps <- e :: t.exps
        | `Skip -> ())
      rest;
    t

(* the text is built before the file is touched, and lands through a
   temporary file renamed over [path]: a save that raises or is killed
   leaves the old knowledge base whole *)
let save (t : t) (path : string) : unit = Obs.Json.write_file path (to_string t)

let load (path : string) : t =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_string s)
