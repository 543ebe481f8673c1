(** Method-specific compilation (an implemented extension, after the
    paper's ref [53], Cavazos & O'Boyle OOPSLA'06): choose an optimization
    pipeline per {e function} with a learned multiclass model, instead of
    one pipeline for the whole program. *)

(** the per-function pipeline classes the model chooses between
    (all function-local passes) *)
val classes : (string * Passes.Pass.t list) list

val nclasses : int
val class_seq : int -> Passes.Pass.t list
val class_name : int -> string
val function_names : Mira.Ir.program -> string list

(** cycles charged per (IR instruction x pass applied) — the JIT tiering
    knob: the objective everywhere is compile cycles + run cycles *)
val compile_cost_per_instr_pass : int

val compile_cost : Mira.Ir.program -> string -> int -> int
val total_compile_cost : Mira.Ir.program -> (string -> int) -> int

type instance = {
  iprog : string;
  ifunc : string;
  feats : float array;
  label : int;          (** measured winning class *)
  costs : float array;  (** cycles per class *)
}

(** label every function of a training program by actually trying each
    class on it (the rest of the program held at the light pipeline);
    functions where the choice does not matter are skipped *)
val gen_instances :
  ?config:Mach.Config.t -> prog:string -> Mira.Ir.program -> instance list

type t = { model : Mlkit.Dtree.t }

(** [None] on an empty instance list *)
val train : instance list -> t option

(** predicted class for one function *)
val choose : t -> Mira.Ir.program -> string -> int

(** optimize every function with its predicted pipeline; also returns the
    per-function choices for reporting *)
val compile : t -> Mira.Ir.program -> Mira.Ir.program * (string * string) list
