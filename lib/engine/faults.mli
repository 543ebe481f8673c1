(** Seeded, deterministic fault injection for the evaluation engine.

    The pool, the result cache, the journal and the bench harness consult
    named {e injection points}; an installed plan decides, purely from the
    point name and an occurrence number, whether the fault fires.  No
    randomness, no wall-clock: the same plan against the same run injects
    the same faults, so every failure mode is a reproducible test.

    A plan is parsed from a spec string of comma-separated directives:

    {v point@occ          fire at occurrence occ (0-based)
point@occ=ARG      same, with an integer argument
point@occ+         fire at occ and every later occurrence
point@*            fire at every occurrence v}

    The occurrence number is either supplied by the caller (e.g. the
    pool passes the {e task index}, so ["worker-crash@3"] means "the
    worker running task 3 dies", on every attempt) or counted per point
    (e.g. ["torn-append@5"] tears the sixth cache append of the
    process).

    Known points:
    - ["worker-crash"] — pool worker [_exit]s instead of running the
      task (occurrence = task index);
    - ["worker-hang"] — pool worker sleeps [ARG] seconds (default 3600)
      before running the task (occurrence = task index);
    - ["spawn-fail"] — forking a pool worker raises (occurrence =
      spawn attempt, counted);
    - ["torn-append"] — a cache append writes only half the line and no
      newline, as a crash mid-write would (counted);
    - ["flip-append"] — a cache append writes the line with one bit
      flipped, as silent media corruption would (counted);
    - ["fail-append"] — a cache append raises mid-write, as a full disk
      would (counted);
    - ["stale-lock"] — a cache lock acquisition finds a lock file left
      by a dead process (counted);
    - ["compact-crash"] — log compaction dies after writing the
      temporary file, before the atomic rename (counted);
    - ["sweep-crash"] — a checkpointed sweep [_exit]s right after
      journaling a chunk, like [kill -9] (occurrence = chunk index);
    - ["sweep-torn"] — a journal chunk record is torn mid-write
      (occurrence = chunk index);
    - ["tstore-write"] — a trace-store append is torn mid-payload (the
      entry header and roughly half the payload bytes reach the disk,
      with no terminator), as a crash mid-write would (counted). *)

(** raised {e by} injected faults that surface as exceptions
    ([spawn-fail], [fail-append], [compact-crash]) *)
exception Injected of string

type plan

(** what a fired directive carries *)
type hit = { arg : int option }

(** the empty plan: nothing ever fires *)
val none : plan

val parse : string -> (plan, string) result

(** @raise Invalid_argument on a malformed spec *)
val parse_exn : string -> plan

(** install a plan process-wide (replacing any previous one) and reset
    all occurrence counters.  Forked children inherit the plan. *)
val install : plan -> unit

(** remove the installed plan (equivalent to [install none]) *)
val clear : unit -> unit

(** is any plan with at least one directive installed? *)
val active : unit -> bool

(** parse and install the [MIRA_FAULTS] environment variable, if set.
    @raise Invalid_argument if it is set but malformed *)
val install_from_env : unit -> unit

(** [consult ?index point] — does a directive for [point] fire at this
    occurrence?  With [~index] the caller names the occurrence (and no
    state changes); without, a per-point counter supplies it (and is
    incremented).  Returns the directive's argument on fire.  With no
    active plan this is a single branch. *)
val consult : ?index:int -> string -> hit option

(** [consult] as a boolean *)
val fires : ?index:int -> string -> bool

(** install [plan], run the thunk, always restore the previous plan and
    counters — for tests *)
val with_plan : plan -> (unit -> 'a) -> 'a
