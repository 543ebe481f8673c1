(** k-nearest-neighbour classification with optional inverse-distance
    weighting.  Deterministic: distance ties break by
    training index. *)

type t = {
  xs : float array array;
  ys : int array;
  k : int;
  weighted : bool;
  nclasses : int;
}

(** @raise Invalid_argument on an empty dataset or non-positive [k] *)
val fit : ?k:int -> ?weighted:bool -> Dataset.t -> t

(** the k nearest training indices with distances, nearest first *)
val neighbors : t -> float array -> (int * float) list

val class_scores : t -> float array -> float array
val predict : t -> float array -> int

(** normalized vote shares (sums to 1) *)
val predict_proba : t -> float array -> float array
