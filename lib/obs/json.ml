(* JSON: the one place that knows the syntax.  See json.mli; notes:

   - A number keeps its literal text ([Num "1.500"]), so a document we
     wrote parses back to a value that prints the same bytes, and each
     writer keeps its own number spelling.
   - The escaper writes short forms for '"', '\\' and newline only, and
     \u00XX for every other control byte; the parser decodes that back
     exactly.
   - [to_doc]'s layout is one rule, not a pretty-printer: it is what
     every pretty document the system writes already looked like. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* numbers *)

let int i = Num (string_of_int i)

let num_text v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

(* JSON has no nan/inf literals; they travel as strings so the document
   stays valid *)
let num v = if Float.is_finite v then Num (num_text v) else Str (num_text v)

let fixed d v =
  if Float.is_finite v then Num (Printf.sprintf "%.*f" d v)
  else Str (num_text v)

(* ------------------------------------------------------------------ *)
(* printing *)

let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_seq b ~sep f =
  List.iteri (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      f x)

(* one value on one line; [spaced] puts a space after ',' and ':' *)
let rec add_inline ~spaced b v =
  let sep = if spaced then ", " else "," in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num s -> Buffer.add_string b s
  | Str s -> add_str b s
  | List l ->
    Buffer.add_char b '[';
    add_seq b ~sep (add_inline ~spaced b) l;
    Buffer.add_char b ']'
  | Obj m ->
    Buffer.add_char b '{';
    add_seq b ~sep (add_member ~spaced b) m;
    Buffer.add_char b '}'

and add_member ~spaced b (k, v) =
  add_str b k;
  Buffer.add_string b (if spaced then ": " else ":");
  add_inline ~spaced b v

let to_line v =
  let b = Buffer.create 128 in
  add_inline ~spaced:false b v;
  Buffer.contents b

let to_doc v =
  let b = Buffer.create 1024 in
  let doc_member = function
    (* an empty list, or one of objects or lists: one element per line *)
    | k, List l
      when l = []
           || List.exists (function List _ | Obj _ -> true | _ -> false) l ->
      add_str b k;
      Buffer.add_string b ": [";
      add_seq b ~sep:","
        (fun e ->
          Buffer.add_string b "\n    ";
          add_inline ~spaced:true b e)
        l;
      Buffer.add_string b "\n  ]"
    | kv -> add_member ~spaced:true b kv
  in
  (match v with
   | Obj members ->
     Buffer.add_string b "{\n  ";
     add_seq b ~sep:",\n  " doc_member members;
     Buffer.add_string b "\n}"
   | v -> add_inline ~spaced:true b v);
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* parsing *)

exception Error of string

type cursor = { s : string; mutable pos : int }

let error c msg = raise (Error (Printf.sprintf "byte %d: %s" c.pos msg))
let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None
let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') -> advance c; skip_ws c
  | _ -> ()

let expect c ch =
  if peek c = Some ch then advance c
  else error c (Printf.sprintf "expected %C" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then (
    c.pos <- c.pos + n;
    v)
  else error c ("expected " ^ word)

let hex4 c =
  let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
  in
  let h = String.sub c.s c.pos (min 4 (String.length c.s - c.pos)) in
  if String.length h < 4 || not (String.for_all hex h) then
    error c "bad \\u escape";
  c.pos <- c.pos + 4;
  int_of_string ("0x" ^ h)

(* the code point of a \u escape, the cursor just past the 'u'; a
   surrogate pair makes one code point *)
let uchar c =
  let u = hex4 c in
  if u land 0xFC00 = 0xD800 then begin
    expect c '\\';
    expect c 'u';
    let lo = hex4 c in
    if lo land 0xFC00 <> 0xDC00 then error c "bad surrogate pair";
    Uchar.of_int (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
  end
  else if u land 0xFC00 = 0xDC00 then error c "lone surrogate"
  else Uchar.of_int u

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match Option.bind (peek c) (String.index_opt "\"\\/bfnrtu") with
       | Some 8 -> advance c; Buffer.add_utf_8_uchar b (uchar c)
       | Some i -> advance c; Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
       | None -> error c "bad escape");
      go ()
    | Some ch when Char.code ch < 0x20 -> error c "control byte in string"
    | Some ch -> advance c; Buffer.add_char b ch; go ()
  in
  go ();
  Buffer.contents b

(* the JSON number grammar; the value is the literal text *)
let parse_number c =
  let start = c.pos in
  let digits () =
    let from = c.pos in
    while match peek c with Some '0' .. '9' -> true | _ -> false do
      advance c
    done;
    if c.pos = from then error c "bad number"
  in
  if peek c = Some '-' then advance c;
  if peek c = Some '0' then advance c else digits ();
  if peek c = Some '.' then (advance c; digits ());
  (match peek c with
   | Some ('e' | 'E') ->
     advance c;
     (match peek c with Some ('+' | '-') -> advance c | _ -> ());
     digits ()
   | _ -> ());
  Num (String.sub c.s start (c.pos - start))

(* [item]s separated by commas up to [close]; the opening bracket is
   already consumed *)
let items c close item =
  skip_ws c;
  if peek c = Some close then (advance c; [])
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws c;
      match peek c with
      | Some ',' -> advance c; go acc
      | Some ch when ch = close -> advance c; List.rev acc
      | _ -> error c (Printf.sprintf "expected , or %C" close)
    in
    go []

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    advance c;
    Obj
      (items c '}' (fun () ->
           skip_ws c;
           let k = parse_string c in
           skip_ws c;
           expect c ':';
           (k, parse_value c)))
  | Some '[' ->
    advance c;
    List (items c ']' (fun () -> parse_value c))
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let at_end c =
  skip_ws c;
  if peek c <> None then error c "trailing bytes"

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  at_end c;
  v

let parse_trace s =
  let c = { s; pos = 0 } in
  skip_ws c;
  expect c '[';
  let rec go acc =
    skip_ws c;
    match peek c with
    | None -> (acc, true)
    | Some ']' when acc = [] -> advance c; (acc, false)
    | Some _ -> (
      let acc = parse_value c :: acc in
      skip_ws c;
      match peek c with
      | Some ',' -> advance c; go acc
      | Some ']' -> advance c; (acc, false)
      | None -> (acc, true)
      | Some _ -> error c "expected , or ]")
  in
  let events, truncated = go [] in
  at_end c;
  (List.rev events, truncated)

(* ------------------------------------------------------------------ *)
(* reading values *)

let mem k = function Obj m -> List.assoc_opt k m | _ -> None

let field k v =
  match mem k v with Some x -> x | None -> raise (Error ("missing " ^ k))

let kind_error what v =
  raise (Error (Printf.sprintf "expected %s, got %s" what (to_line v)))

let to_str = function Str s -> s | v -> kind_error "a string" v
let to_list = function List l -> l | v -> kind_error "a list" v

let to_float = function
  | Num s -> float_of_string s
  | Str s as v -> (
    match float_of_string_opt s with
    | Some f when not (Float.is_finite f) -> f
    | _ -> kind_error "a number" v)
  | v -> kind_error "a number" v

let to_int v =
  let f = to_float v in
  if Float.is_integer f then int_of_float f else kind_error "an integer" v

(* ------------------------------------------------------------------ *)
(* files *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc text;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path
