(** Deterministic Büchi automata with lazily generated state spaces, and
    lasso-based emptiness — the substrate of the sticky decision procedure
    (paper §6.5, App. D.2). *)

type ('s, 'a) t

(** A non-emptiness witness: after [prefix], the [cycle] can be pumped
    forever while visiting an accepting state. *)
type 'a lasso = { prefix : 'a list; cycle : 'a list }

type 'a emptiness =
  | Empty
  | Nonempty of 'a lasso
  | Budget_exceeded of int  (** states explored when the budget ran out *)

type stats = {
  states : int;
  transitions : int;
  pruned : int;  (** candidates redirected to a subsuming state *)
}

(** [next s a = None] is the implicit reject sink; [state_key] must be an
    injective encoding of states (used for hashing). *)
val make :
  initial:'s ->
  alphabet:'a list ->
  next:('s -> 'a -> 's option) ->
  accepting:('s -> bool) ->
  state_key:('s -> string) ->
  ('s, 'a) t

(** Attach a subsumption structure used by pruned exploration: [key]
    groups comparable states (candidates are only compared within a
    group), and [subsumes existing candidate] must imply that every word
    accepted from [candidate] is accepted from [existing] (language
    inclusion, DESIGN.md §10).  Inert unless [~prune:true] is passed to
    {!emptiness} / {!emptiness_with_stats} / {!stats}. *)
val with_subsumption :
  key:('s -> string) -> subsumes:('s -> 's -> bool) -> ('s, 'a) t -> ('s, 'a) t

val default_max_states : int

(** Decide L(A) = ∅ and report exploration stats from the same single
    pass over the reachable graph.

    [prune] (default: [false]) enables subsumption pruning when the
    automaton carries a {!with_subsumption} structure: a candidate state
    subsumed by a registered state of the same group is not explored and
    its incoming edge is redirected to the subsumer.  An [Empty] verdict
    on the pruned graph is sound; a [Nonempty] witness is re-validated
    with {!accepts_lasso} and, if it rode redirected edges, the search
    transparently reruns unpruned. *)
val emptiness_with_stats : ?max_states:int -> ?prune:bool -> ('s, 'a) t -> 'a emptiness * stats

(** [fst] of {!emptiness_with_stats}; a [Nonempty] answer carries a
    lasso witness. *)
val emptiness : ?max_states:int -> ?prune:bool -> ('s, 'a) t -> 'a emptiness

(** Budget-total emptiness: [None] when the verdict is [Budget_exceeded]
    rather than an exception.  Prefer this anywhere a budget overrun
    must degrade to "unknown" instead of escaping. *)
val is_empty_opt : ?max_states:int -> ('s, 'a) t -> bool option

(** @raise Invalid_argument when the state budget is exceeded (use
    {!is_empty_opt} or {!emptiness} where budgets are expected). *)
val is_empty : ?max_states:int -> ('s, 'a) t -> bool

(** Size of the reachable automaton; on budget overrun, the counts at
    the stop point. *)
val stats : ?max_states:int -> ?prune:bool -> ('s, 'a) t -> stats

(** Validate a lasso witness by running the automaton over it. *)
val accepts_lasso : ('s, 'a) t -> 'a lasso -> bool
