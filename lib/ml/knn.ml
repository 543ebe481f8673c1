(* k-nearest-neighbour classification with optional inverse distance
   weighting — the "correlate the new program with previous
   knowledge" workhorse of the intelligent compiler (nearest programs in
   feature space contribute their known-good optimizations). *)

type t = {
  xs : float array array;
  ys : int array;
  k : int;
  weighted : bool;
  nclasses : int;
}

let fit ?(k = 3) ?(weighted = false) (d : Dataset.t) : t =
  if Dataset.size d = 0 then invalid_arg "Knn.fit: empty dataset";
  if k <= 0 then invalid_arg "Knn.fit: k must be positive";
  { xs = d.Dataset.xs; ys = d.Dataset.ys; k; weighted; nclasses = d.Dataset.nclasses }

(* indices of the k nearest training points, nearest first; ties broken by
   index so results are deterministic *)
let neighbors (t : t) (x : float array) : (int * float) list =
  let dists =
    Array.mapi (fun i xi -> (i, Linalg.euclidean x xi)) t.xs
  in
  Array.sort
    (fun (i1, d1) (i2, d2) ->
      match compare d1 d2 with 0 -> compare i1 i2 | c -> c)
    dists;
  Array.to_list (Array.sub dists 0 (min t.k (Array.length dists)))

let class_scores (t : t) (x : float array) : float array =
  let votes = Array.make (max 1 t.nclasses) 0.0 in
  List.iter
    (fun (i, d) ->
      let w = if t.weighted then 1.0 /. (d +. 1e-9) else 1.0 in
      let y = t.ys.(i) in
      votes.(y) <- votes.(y) +. w)
    (neighbors t x);
  votes

let predict (t : t) (x : float array) : int =
  Linalg.argmax (class_scores t x)

(* probability-like normalized vote shares *)
let predict_proba (t : t) (x : float array) : float array =
  let votes = class_scores t x in
  let total = Array.fold_left ( +. ) 0.0 votes in
  if total <= 0.0 then votes else Array.map (fun v -> v /. total) votes
