(** The deterministic Büchi automaton A_T of the sticky decision procedure
    (paper Lemma 6.12, App. D.2): the union over start pairs (e₀, Π₀) of
    products A_pc × A_qc × A_cc over the caterpillar-word alphabet Λ_T.
    L(A_T) ≠ ∅ iff a free connected caterpillar for T exists. *)

open Chase_core

(** A letter of Λ_T: a TGD, a body atom of it, and a (possibly empty)
    pass-on set — the head positions of one existential variable. *)
type letter = { tgd_index : int; gamma_index : int; pass_on : int list }

val letter_to_string : Tgd.t array -> letter -> string

type teq
(** A T-equality type (App. D.2): an equality type with classes
    injectively labeled by classes of the current body atom. *)

val teq_encode : teq -> string

type state = {
  et : Equality_type.t;  (** A_pc component *)
  theta : teq list;  (** A_qc component *)
  pi1 : int list;  (** A_cc: positions of the current relay term *)
  pi2 : int list;  (** A_cc: positions of all relay terms *)
  pass : bool;  (** accepting flag: a pass-on point was just crossed *)
}

val state_key : state -> string

type context
(** TGDs, their sticky marking, and a memo table for the transition
    function shared across all component automata of the context. *)

val tgds : context -> Tgd.t array

(** @raise Invalid_argument when the TGDs are not sticky, or when they
    mention constants (the equality-type abstraction does not track
    constants; the facade decider falls back to weak acyclicity). *)
val make_context : Tgd.t list -> context

(** Λ_T, enumerated. *)
val alphabet : context -> letter list

(** One product transition; [None] is the reject sink. *)
val next : context -> state -> letter -> state option

(** {!next} through the context's shared memo table — what the component
    automata actually run. *)
val memo_next : context -> state -> letter -> state option

(** The component automaton A_{e₀,Π₀}, carrying the subsumption
    structure used by pruned exploration ({!Chase_automata.Buchi.with_subsumption},
    DESIGN.md §10). *)
val component :
  context ->
  start_et:Equality_type.t ->
  start_class:int ->
  (state, letter) Chase_automata.Buchi.t

(** All start pairs: every equality type over sch(T) with every class. *)
val start_pairs : context -> (Equality_type.t * int) list

(** A_T as the list of its components. *)
val components :
  context -> ((Equality_type.t * int) * (state, letter) Chase_automata.Buchi.t) list

(** Run the deterministic automaton over a finite caterpillar word from
    the given start pair; [None] = the reject sink. *)
val simulate :
  context -> start_et:Equality_type.t -> start_class:int -> letter list -> state option
