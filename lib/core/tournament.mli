(** The paper's Sec. II-A phrasing of phase ordering as a learning
    problem: "given certain optimizations already applied and two possible
    optimizations to apply next, choose which of the two to perform",
    used to run a tournament among all passes at every step. *)

(** the "run to the end with a competent heuristic" cleanup (Sec. II-A)
    appended when labelling choices and to every derived ordering *)
val completion : Passes.Pass.t list

type instance = { feats : float array; label : int (** 1 = first wins *) }

(** static features of the current program + one-hot pass identities *)
val instance_features :
  Mira.Ir.program -> Passes.Pass.t -> Passes.Pass.t -> float array

(** Generate labelled instances from one program, pursuing both choices
    at each decision point and evaluating them through [engine] on its
    machine, as the methodology prescribes.  Instances come in mirrored
    pairs.  When the engine's pool is parallel, each decision point is
    scored as one batch; the generated instances are the same either
    way. *)
val gen_instances :
  engine:Engine.t -> ?seed:int -> ?steps:int -> ?pairs_per_step:int ->
  Mira.Ir.program -> instance list

type t = { tree : Mlkit.Dtree.t }

(** [None] on an empty instance list *)
val train : instance list -> t option

(** does the model prefer pass [a] over [b] for this program state? *)
val prefers : t -> Mira.Ir.program -> Passes.Pass.t -> Passes.Pass.t -> bool

(** derive a program-specific phase ordering: a tournament over all
    passes at each of [steps] rounds, applying each round's winner; the
    result ends with {!completion} *)
val order : t -> ?steps:int -> Mira.Ir.program -> Passes.Pass.t list
