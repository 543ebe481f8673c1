(** k-means clustering with k-means++ seeding.  Deterministic given the
    seed; empty clusters keep their previous centroid. *)

type t = { centroids : float array array }

(** @raise Invalid_argument on empty data or [k] out of range *)
val fit : ?seed:int -> ?max_iter:int -> k:int -> float array array -> t

(** index of the nearest centroid *)
val predict : t -> float array -> int
