(** Small dense linear-algebra helpers over plain [float array]s. *)

(** dot product.  @raise Invalid_argument on dimension mismatch. *)
val dot : float array -> float array -> float

(** Euclidean distance.  @raise Invalid_argument on dimension mismatch. *)
val euclidean : float array -> float array -> float

val mean : float array -> float

(** population variance *)
val variance : float array -> float

val std : float array -> float

(** column [j] of a row-major matrix *)
val column : float array array -> int -> float array

(** index of the maximum element.  @raise Invalid_argument on empty. *)
val argmax : float array -> int

val argmin : float array -> int
