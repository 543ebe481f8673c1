(* Small dense linear-algebra helpers over float arrays.  Everything is
   plain [float array] / [float array array] so callers can build vectors
   without wrapper types. *)

let dot (a : float array) (b : float array) : float =
  if Array.length a <> Array.length b then
    invalid_arg "Linalg.dot: dimension mismatch";
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let euclidean a b =
  if Array.length a <> Array.length b then
    invalid_arg "Linalg.euclidean: dimension mismatch";
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    s := !s +. (d *. d)
  done;
  sqrt !s

let mean (xs : float array) : float =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
    /. float_of_int n
  end

let std xs = sqrt (variance xs)

(* column [j] of a row-major matrix *)
let column (m : float array array) j = Array.map (fun row -> row.(j)) m

let argmax (xs : float array) : int =
  if Array.length xs = 0 then invalid_arg "Linalg.argmax: empty";
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) > xs.(!best) then best := i
  done;
  !best

let argmin (xs : float array) : int =
  if Array.length xs = 0 then invalid_arg "Linalg.argmin: empty";
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) < xs.(!best) then best := i
  done;
  !best
