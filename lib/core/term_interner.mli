(** Dense term interning for the columnar fact store.

    Maps ground terms (constants and nulls) to consecutive integer ids,
    with O(1) reverse lookup, so {!Cinstance} can store relations as
    flat integer columns and join plans can compare ids instead of
    walking [Term.t] structure — while snapshots, derivations and
    null-renaming homomorphism checks keep working on the original
    terms via {!term_of}.

    Ids are assigned in first-intern order starting at 0 and are never
    reused, so they are stable for the lifetime of the interner. *)

type t

(** A fresh interner.  [size_hint] sizes the initial tables; growth past
    it is transparent. *)
val create : ?size_hint:int -> unit -> t

(** [intern t term] returns the id of [term], assigning the next dense
    id on first sight.  Mutates the interner — never call it from the
    read-only plan runtime (see {!find}). *)
val intern : t -> Term.t -> int

(** [find t term] is the id of [term], or [-1] when it was never
    interned.  Read-only. *)
val find : t -> Term.t -> int

val find_opt : t -> Term.t -> int option

(** [term_of t id] is the term with the given id.
    @raise Invalid_argument when [id] was never assigned. *)
val term_of : t -> int -> Term.t

(** Number of interned terms (= the next fresh id). *)
val cardinal : t -> int
