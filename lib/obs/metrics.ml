(* Metrics registry.  See metrics.mli; notes:

   - The registry is a process-global name -> metric table.  Handles are
     records the call sites keep; [reset] zeroes values in place so
     handles obtained at module init survive (the tests depend on it).
   - Histogram buckets: index 0 is the underflow bucket (v < 1e-6),
     indices 1..64 cover [lo*2^(i-1), lo*2^i), index 65 is overflow.
     Count, sum, min and max are tracked exactly; only the quantiles
     are bucket-approximate. *)

type counter = { cname : string; mutable c : int }
type gauge = { gname : string; mutable g : float; mutable gtouched : bool }

let n_buckets = 64
let lo_bound = 1e-6

type histogram = {
  hname : string;
  hunit : string;
  counts : int array; (* n_buckets + 2 *)
  mutable sum : float;
  mutable n : int;
  mutable mn : float;
  mutable mx : float;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let timing = ref false

let register name build describe =
  match Hashtbl.find_opt registry name with
  | None ->
    let m = build () in
    Hashtbl.replace registry name m;
    m
  | Some m -> (
    match describe m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %S already registered with another kind"
           name))

let counter name =
  match
    register name
      (fun () -> C { cname = name; c = 0 })
      (function C c -> Some (C c) | _ -> None)
  with
  | C c -> c
  | _ -> assert false

let gauge name =
  match
    register name
      (fun () -> G { gname = name; g = 0.0; gtouched = false })
      (function G g -> Some (G g) | _ -> None)
  with
  | G g -> g
  | _ -> assert false

let histogram ?(unit_ = "ms") name =
  match
    register name
      (fun () ->
        H
          {
            hname = name;
            hunit = unit_;
            counts = Array.make (n_buckets + 2) 0;
            sum = 0.0;
            n = 0;
            mn = infinity;
            mx = neg_infinity;
          })
      (function H h -> Some (H h) | _ -> None)
  with
  | H h -> h
  | _ -> assert false

let incr ?(by = 1) c = c.c <- c.c + by

let set g v =
  g.g <- v;
  g.gtouched <- true

let bucket_of_value v =
  if Float.is_nan v || v < lo_bound then 0
  else
    let i = 1 + int_of_float (Float.log2 (v /. lo_bound)) in
    if i < 1 then 1 else if i > n_buckets then n_buckets + 1 else i

let observe h v =
  h.counts.(bucket_of_value v) <- h.counts.(bucket_of_value v) + 1;
  h.sum <- h.sum +. v;
  h.n <- h.n + 1;
  if v < h.mn then h.mn <- v;
  if v > h.mx then h.mx <- v

let value c = c.c
let hist_count h = h.n
let hist_sum h = h.sum

let bucket_lower i = if i <= 1 then 0.0 else lo_bound *. Float.pow 2.0 (float_of_int (i - 1))
let bucket_upper i =
  if i = 0 then lo_bound
  else lo_bound *. Float.pow 2.0 (float_of_int i)

let quantile h q =
  let counts = h.counts and n = h.n and mn = h.mn and mx = h.mx in
  if n = 0 then nan
  else if q <= 0.0 then mn
  else if q >= 1.0 then mx
  else begin
    let rank = q *. float_of_int n in
    let i = ref 0 and cum = ref 0.0 in
    while !cum +. float_of_int counts.(!i) < rank && !i < n_buckets + 1 do
      cum := !cum +. float_of_int counts.(!i);
      i := !i + 1
    done;
    let in_bucket = float_of_int counts.(!i) in
    let lower = Float.max mn (bucket_lower !i) in
    let upper =
      if !i = n_buckets + 1 then mx else Float.min mx (bucket_upper !i)
    in
    if in_bucket <= 0.0 then Float.min upper mx
    else
      let frac = (rank -. !cum) /. in_bucket in
      Float.max mn (Float.min mx (lower +. ((upper -. lower) *. frac)))
  end

(* ------------------------------------------------------------------ *)
(* export *)

let fnum = Json.num_text

let hist_cell h =
  Printf.sprintf "n=%d sum=%s min=%s p50=%s p90=%s p99=%s max=%s %s" h.n
    (fnum h.sum) (fnum h.mn)
    (fnum (quantile h 0.5))
    (fnum (quantile h 0.9))
    (fnum (quantile h 0.99))
    (fnum h.mx) h.hunit

let interesting = function
  | C c -> c.c <> 0
  | G g -> g.gtouched
  | H h -> h.n > 0

let cell = function
  | C c -> string_of_int c.c
  | G g -> fnum g.g
  | H h -> hist_cell h

let snapshot () =
  Hashtbl.fold
    (fun name m acc -> if interesting m then (name, cell m) :: acc else acc)
    registry []
  |> List.sort compare

let pp_table ppf () =
  match snapshot () with
  | [] -> Format.fprintf ppf "metrics (none recorded)@."
  | rows ->
    let w =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 rows
    in
    Format.fprintf ppf "metrics@.";
    List.iter
      (fun (n, v) -> Format.fprintf ppf "  %-*s  %s@." w n v)
      rows

let metric_to_json m =
  let open Json in
  match m with
  | C c ->
    Obj [ ("type", Str "counter"); ("name", Str c.cname); ("value", int c.c) ]
  | G g ->
    Obj [ ("type", Str "gauge"); ("name", Str g.gname); ("value", num g.g) ]
  | H h ->
    (* sparse: only non-empty buckets, as [index,count] pairs — the
       typical histogram hits a handful of its 66 buckets *)
    let bucket i n = if n > 0 then [ List [ int i; int n ] ] else [] in
    let buckets = List.concat (List.mapi bucket (Array.to_list h.counts)) in
    Obj
      [ ("type", Str "histogram"); ("name", Str h.hname); ("unit", Str h.hunit);
        ("count", int h.n); ("sum", num h.sum); ("min", num h.mn);
        ("max", num h.mx); ("p50", num (quantile h 0.5));
        ("p90", num (quantile h 0.9)); ("p99", num (quantile h 0.99));
        ("buckets", List buckets) ]

let to_jsonl () =
  Hashtbl.fold
    (fun name m acc -> if interesting m then (name, m) :: acc else acc)
    registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (_, m) -> Json.to_line (metric_to_json m) ^ "\n")
  |> String.concat ""

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> c.c <- 0
      | G g ->
        g.g <- 0.0;
        g.gtouched <- false
      | H h ->
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.sum <- 0.0;
        h.n <- 0;
        h.mn <- infinity;
        h.mx <- neg_infinity)
    registry
