(** Model evaluation: accuracy, confusion matrices, and the leave-one-out
    cross-validation the paper's methodology recommends.
    Generic over a trainer function so every classifier plugs in. *)

type classifier = float array -> int
type trainer = Dataset.t -> classifier

(** @raise Invalid_argument on an empty dataset *)
val accuracy : classifier -> Dataset.t -> float

(** [confusion predict d] is indexed [true_class][predicted_class] *)
val confusion : classifier -> Dataset.t -> int array array

(** leave-one-out cross-validated accuracy (paper Sec. II-A).
    @raise Invalid_argument with fewer than two points *)
val loocv : trainer -> Dataset.t -> float
