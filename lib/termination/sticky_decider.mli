(** The decision procedure for CTres∀∀(S) (paper Theorem 6.1):
    T ∈ CTres∀∀ iff L(A_T) = ∅.  A non-empty component yields a lasso,
    unrolled into a concrete caterpillar prefix that can be checked
    independently. *)

open Chase_core
open Chase_automata

type certificate = {
  start_et : Equality_type.t;
  start_class : int;
  lasso : Sticky_automaton.letter Buchi.lasso;
  prefix : Caterpillar.t;  (** the lasso unrolled a few turns *)
}

type verdict =
  | All_terminating
      (** T ∈ CTres∀∀: every restricted chase derivation of every
          database is finite *)
  | Non_terminating of certificate
  | Inconclusive of string
      (** a state budget was exceeded *)

type stats = { components : int; explored_states : int; decision : verdict }

val default_unroll_turns : int

(** [explored_states] comes from the same pass that decided each
    component (no re-exploration).  [prune] (default [false]) enables subsumption pruning on the component
    automata (see {!Buchi.with_subsumption} and DESIGN.md §10); verdicts
    are unchanged, only the explored-state counts shrink. *)
val decide_with_stats :
  ?max_states:int -> ?unroll_turns:int -> ?prune:bool -> Tgd.t list -> stats

(** @raise Invalid_argument when the TGDs are not sticky or mention
    constants (rejected up front by {!Sticky_automaton.make_context};
    no crash path remains for constant-bearing inputs). *)
val decide : ?max_states:int -> ?unroll_turns:int -> ?prune:bool -> Tgd.t list -> verdict

(** Validate a certificate against the caterpillar definitions. *)
val check_certificate : Tgd.t list -> certificate -> (unit, string) result

(** Unroll a lasso into a caterpillar prefix. *)
val unroll :
  Sticky_automaton.context ->
  start_et:Equality_type.t ->
  start_class:int ->
  lasso:Sticky_automaton.letter Buchi.lasso ->
  turns:int ->
  Caterpillar.t
