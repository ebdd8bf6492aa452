(** The facade decider for CTres∀∀: one cost-ordered cascade per class
    of the input TGD set (DESIGN.md §10).  Weak and joint acyclicity are
    read off the classification; then the sticky Büchi procedure (§6,
    sound and complete), model-faithful acyclicity, or the guarded
    divergence search (§5, see DESIGN.md), as the class allows. *)

open Chase_classes

type answer =
  | Terminating  (** T ∈ CTres∀∀ *)
  | Non_terminating  (** some database admits an infinite valid derivation *)
  | Unknown

type method_used =
  | Sticky_buchi  (** Theorem 6.1 *)
  | Guarded_search  (** Theorem 5.1 machinery, certificate search *)
  | Weak_acyclicity_check  (** baseline sufficient condition *)
  | Joint_acyclicity_check  (** sufficient condition, subsumes WA *)
  | Mfa_check  (** model-faithful acyclicity, subsumes JA *)

type report = {
  classification : Classification.report;
  answer : answer;
  method_used : method_used;
  detail : string;
}

(** Stable wire name of a method ("sticky-buchi", "mfa", …), used by
    [chasectl] and the serve protocol (docs/SERVICE.md). *)
val method_name : method_used -> string

(** The cascade, stopping at the first conclusive step:
    + weak acyclicity, then joint acyclicity, from the classification;
    + on constant-free single-head sticky sets, the sticky Büchi
      procedure (unpruned, [sticky_max_states] per component), then MFA
      only when that procedure is inconclusive;
    + on constant-free single-head guarded sets, MFA, then
      {!Guarded_decider.search_divergence} at [guarded_max_depth];
    + on other constant-free sets, MFA.

    WA, JA and MFA only ever conclude [Terminating]; each step is
    entered only where it is sound, so the first conclusive answer is
    correct.  An inconclusive cascade reports the class's exact
    procedure and its note (weak acyclicity outside the sticky and
    guarded classes). *)
val decide :
  ?sticky_max_states:int -> ?guarded_max_depth:int -> Chase_core.Tgd.t list -> report

val pp_answer : Format.formatter -> answer -> unit
val pp : Format.formatter -> report -> unit
