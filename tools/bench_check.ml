(* bench_check — the bench regression gate.

   Compares a fresh `miracc-bench ... --json` report against a
   checked-in BENCH_*.json baseline, field by field, with per-metric
   tolerance rules chosen by key name:

   - timing fields ("ns", or ending in _ns/_ms/_s): benches run on
     whatever machine CI hands us, so only a large slowdown is a
     regression — fresh must stay under baseline * factor
     (default 2.0, --factor to override).  Faster is always fine.
   - speedup fields (containing "speedup"): relative measurements are
     steadier than absolute ones, but still noisy — fresh must keep at
     least half the baseline's speedup.
   - booleans (the "identical" bit-identity flags): exact.  These are
     correctness claims, not measurements.
   - every other number (counters: trace_words, dedup_hits, ...):
     exact.  The engine is deterministic; a drifted counter means the
     computation changed, which is exactly what this gate is for.
   - strings: exact, except keys in the skip list.
   - skip list (machine-dependent facts): "cores", plus --skip KEY.

   The baseline drives the walk: every baseline field must be present
   and comparable in the fresh report (a vanished metric is a shape
   regression); extra fresh fields are ignored, so adding metrics never
   breaks the gate.  Arrays of objects are matched by their "name" /
   "benchmark" field when present, by index otherwise.

   Schema evolution: when both reports carry a top-level "schema" of
   the same family but a different version ("icc-bench-arch/1" vs
   "icc-bench-arch/2" — the family is the part before '/'), the gate
   goes lenient: the schema string mismatch is not a regression, and a
   baseline field missing from the fresh report is skipped rather than
   treated as a shape error — a report one schema version apart keeps
   its numeric gates on every field both sides still share.  Different
   families stay a hard string mismatch.

   Exit 0 all rules hold, 1 regressions, 2 usage/parse/shape trouble.
   --json prints a machine-readable verdict (icc-bench-verdict/1). *)

module Json = Obs.Json

(* [base]/[fresh] are [None] when the field is absent *)
type outcome = {
  path : string;
  rule : string;
  base : Json.t option;
  fresh : Json.t option;
}

let shape_error = ref false

(* a compared value as the verdict reports it: numbers in the shared
   spelling, containers elided *)
let shown = function
  | None -> Json.Str "(absent)"
  | Some (Json.Num _ as n) -> Json.num (Json.to_float n)
  | Some (Json.List _) -> Json.Str "[...]"
  | Some (Json.Obj _) -> Json.Str "{...}"
  | Some v -> v

(* ... and in the text report, where only real strings are quoted *)
let text v =
  match (v, shown v) with
  | (None | Some (Json.List _ | Json.Obj _)), Json.Str s -> s
  | _, shown -> Json.to_line shown

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let ends_with suf s =
  let ns = String.length s and nf = String.length suf in
  ns >= nf && String.sub s (ns - nf) nf = suf

let is_timing key =
  key = "ns" || ends_with "_ns" key || ends_with "_ms" key
  || ends_with "_s" key

let is_speedup key = contains key "speedup"

(* "icc-bench-arch/2" -> ("icc-bench-arch", "2"); no '/' -> whole
   string is the family *)
let schema_family s =
  match String.index_opt s '/' with
  | Some i ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (s, "")

(* same family, different version: comparing across one schema bump *)
let cross_version base fresh =
  match (Json.mem "schema" base, Json.mem "schema" fresh) with
  | Some (Json.Str b), Some (Json.Str f) ->
    let bf, bv = schema_family b and ff, fv = schema_family f in
    bf = ff && bv <> fv
  | _ -> false

(* the label an array element is matched by across baseline and fresh *)
let element_key ev =
  match Json.mem "name" ev with
  | Some (Json.Str s) -> Some s
  | _ ->
    (match Json.mem "benchmark" ev with
     | Some (Json.Str s) -> Some s
     | _ -> None)

let rec compare_values ~factor ~skip ~lenient ~path ~key regressions base
    fresh =
  let fail rule bv fv =
    regressions :=
      { path; rule; base = Some bv; fresh = Some fv } :: !regressions
  in
  let shape why =
    shape_error := true;
    regressions :=
      { path; rule = "shape: " ^ why; base = Some base; fresh = Some fresh }
      :: !regressions
  in
  if List.mem key skip then ()
  else
    match (base, fresh) with
    | Json.Num _, Json.Num _ ->
      let b = Json.to_float base and f = Json.to_float fresh in
      if is_timing key then begin
        if f > b *. factor then
          fail (Printf.sprintf "timing <= %gx baseline" factor) base fresh
      end
      else if is_speedup key then begin
        if f < b *. 0.5 then fail "speedup >= 0.5x baseline" base fresh
      end
      else if f <> b then fail "counter exact" base fresh
    | Json.Bool b, Json.Bool f ->
      if b <> f then fail "boolean exact" base fresh
    | Json.Str b, Json.Str f ->
      (* a lenient run exists precisely because the schema strings
         differ within one family; don't re-flag the thing we already
         decided to tolerate *)
      if b <> f && not (lenient && key = "schema") then
        fail "string exact" base fresh
    | Json.Null, Json.Null -> ()
    | Json.Obj bfs, (Json.Obj _ as fobj) ->
      List.iter
        (fun (k, bv) ->
          let sub = if path = "" then k else path ^ "." ^ k in
          match Json.mem k fobj with
          | Some fv ->
            compare_values ~factor ~skip ~lenient ~path:sub ~key:k
              regressions bv fv
          | None ->
            if not (List.mem k skip || lenient) then begin
              shape_error := true;
              regressions :=
                { path = sub; rule = "shape: missing in fresh";
                  base = Some bv; fresh = None }
                :: !regressions
            end)
        bfs
    | Json.List bs, Json.List fs ->
      let keyed = List.for_all (fun e -> element_key e <> None) bs in
      if keyed && bs <> [] then
        List.iter
          (fun bv ->
            let k = Option.get (element_key bv) in
            let sub = Printf.sprintf "%s[%s]" path k in
            match List.find_opt (fun fv -> element_key fv = Some k) fs with
            | Some fv ->
              compare_values ~factor ~skip ~lenient ~path:sub ~key
                regressions bv fv
            | None ->
              if not lenient then begin
                shape_error := true;
                regressions :=
                  { path = sub; rule = "shape: missing in fresh";
                    base = Some bv; fresh = None }
                  :: !regressions
              end)
          bs
      else begin
        if List.length fs < List.length bs then
          shape (Printf.sprintf "array shrank %d -> %d" (List.length bs)
                   (List.length fs));
        List.iteri
          (fun i bv ->
            match List.nth_opt fs i with
            | Some fv ->
              compare_values ~factor ~skip ~lenient
                ~path:(Printf.sprintf "%s[%d]" path i)
                ~key regressions bv fv
            | None -> ())
          bs
      end
    | _ -> shape "type changed"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = ref false in
  let factor = ref 2.0 in
  let skip = ref [ "cores" ] in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse_args rest
    | "--factor" :: v :: rest ->
      (match float_of_string_opt v with
       | Some f when f >= 1.0 -> factor := f
       | _ ->
         prerr_endline "bench_check: --factor wants a number >= 1";
         exit 2);
      parse_args rest
    | "--skip" :: k :: rest ->
      skip := k :: !skip;
      parse_args rest
    | f :: rest ->
      files := f :: !files;
      parse_args rest
  in
  parse_args args;
  let base_path, fresh_path =
    match List.rev !files with
    | [ b; f ] -> (b, f)
    | _ ->
      prerr_endline
        "usage: bench_check [--json] [--factor F] [--skip KEY] BASELINE FRESH";
      exit 2
  in
  let load what path =
    match Json.parse (Json.read_file path) with
    | v -> v
    | exception Json.Error msg ->
      Printf.eprintf "bench_check: %s %s: %s\n" what path msg;
      exit 2
    | exception Sys_error e ->
      Printf.eprintf "bench_check: %s\n" e;
      exit 2
  in
  let base = load "baseline" base_path in
  let fresh = load "fresh" fresh_path in
  let regressions = ref [] in
  let lenient = cross_version base fresh in
  if lenient then
    Printf.eprintf
      "bench_check: note: schema versions differ within one family; \
       missing fields tolerated\n";
  compare_values ~factor:!factor ~skip:!skip ~lenient ~path:"" ~key:""
    regressions base fresh;
  let regs = List.rev !regressions in
  let ok = regs = [] in
  if !json then
    print_string
      (Json.to_doc
         (Json.Obj
            [
              ("schema", Json.Str "icc-bench-verdict/1");
              ("baseline", Json.Str base_path);
              ("fresh", Json.Str fresh_path);
              ("factor", Json.num !factor);
              ("ok", Json.Bool ok);
              ( "regressions",
                Json.List
                  (List.map
                     (fun r ->
                       Json.Obj
                         [ ("path", Json.Str r.path); ("rule", Json.Str r.rule);
                           ("baseline", shown r.base);
                           ("fresh", shown r.fresh) ])
                     regs) );
            ]))
  else if ok then
    Printf.printf "bench OK: %s within tolerance of %s (factor %g)\n"
      fresh_path base_path !factor
  else begin
    Printf.printf "bench REGRESSION: %s vs %s\n" fresh_path base_path;
    List.iter
      (fun r ->
        Printf.printf "  %s: %s (baseline %s, fresh %s)\n" r.path r.rule
          (text r.base) (text r.fresh))
      regs
  end;
  if ok then exit 0 else if !shape_error then exit 2 else exit 1
