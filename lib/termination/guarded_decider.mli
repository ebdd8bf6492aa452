(** A decision procedure for CTres∀∀(G) (paper Theorem 5.1), with the
    substitution documented in DESIGN.md: sound termination certificates
    (weak, joint or model-faithful acyclicity) and sound non-termination certificates (a database
    with validated divergence evidence, strengthened along the paper's §5
    pipeline into a chaseable abstract join tree, treeifying cyclic
    witnesses first). *)

open Chase_core
open Chase_engine

type termination_proof = Weakly_acyclic | Jointly_acyclic | Model_faithful_acyclic

type evidence = {
  database : Instance.t;  (** the witnessing database *)
  derivation : Derivation.t;  (** a diverging derivation prefix on it *)
  acyclic : bool;  (** whether [database] is acyclic (Def 5.4) *)
  treeified : Treeify.result option;  (** Thm 5.5 run, when cyclic *)
  abstract_tree : Abstract_join_tree.t option;  (** Def 5.8 encoding *)
  chaseable : bool;  (** Def 5.10 check on the abstract tree *)
}

type search_report = { candidates : int; explored_states : int }

type verdict =
  | Terminating of termination_proof
  | Non_terminating of evidence
  | No_divergence_found of search_report
      (** bounded-search evidence of termination, not a proof *)

(** Freeze the body of a TGD into a database (distinct constants, or one
    shared constant with [unify]). *)
val frozen_body : ?unify:bool -> Tgd.t -> Instance.t

(** The oblivious-chase critical database D* — not critical for the
    restricted chase (§1.2), but a useful candidate. *)
val critical_database : Tgd.t list -> Instance.t

(** Frozen bodies under every partition of the body variables (bounded
    by Bell(#vars); large TGDs fall back to the none/all pair). *)
val frozen_bodies_all_partitions : Tgd.t -> Instance.t list

(** The candidate databases the divergence search sweeps. *)
val candidate_databases : Tgd.t list -> Instance.t list

val default_max_depth : int

(** The candidate-database divergence sweep on its own — the
    non-termination half of {!decide}, run directly by
    {!Decider.decide}, which reads the acyclicity ladder off the
    classification instead.  Candidates are searched in {!candidate_databases} order
    and the first divergence hit wins.  Never returns [Terminating].
    @raise Invalid_argument on unguarded or multi-head TGDs. *)
val search_divergence : ?max_depth:int -> ?max_states:int -> Tgd.t list -> verdict

(** The acyclicity ladder (weak, joint, model-faithful), then
    {!search_divergence}.
    @raise Invalid_argument on unguarded or multi-head TGDs. *)
val decide : ?max_depth:int -> ?max_states:int -> Tgd.t list -> verdict
