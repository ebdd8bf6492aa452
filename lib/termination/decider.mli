(** The facade decider for CTres∀∀, dispatching on the class of the input
    TGD set: the sticky Büchi procedure (§6, sound and complete), the
    guarded certificate search (§5, see DESIGN.md), or plain weak
    acyclicity for everything else — plus {!decide_portfolio}, which
    runs every procedure valid for the classified class in priority
    order and stops at the first conclusive answer (DESIGN.md §10). *)

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
  | Portfolio  (** portfolio cascade with no conclusive procedure *)

(** One procedure's outcome in a portfolio run. *)
type procedure_report = {
  procedure : method_used;
  outcome : answer;
  conclusive : bool;  (** [outcome <> Unknown] *)
  cancelled : bool;
      (** never started because an earlier procedure was conclusive
          (then [wall_ms = 0.]) *)
  wall_ms : float;
  note : string;
}

type report = {
  classification : Classification.report;
  answer : answer;
  method_used : method_used;
  detail : string;
  procedures : procedure_report list;
      (** per-procedure outcomes and timings; [[]] in fixed dispatch *)
}

(** Stable wire name of a method ("sticky-buchi", "portfolio", …), used
    by [chasectl] and the serve protocol (docs/SERVICE.md). *)
val method_name : method_used -> string

(** Fixed dispatch: one procedure, chosen by classification. *)
val decide :
  ?sticky_max_states:int -> ?guarded_max_depth:int -> Chase_core.Tgd.t list -> report

(** A cost-ordered cascade over every procedure valid for the
    classified class: weak acyclicity, joint acyclicity, MFA (when
    constant-free), then the class's exact procedure — the sticky Büchi
    procedure, the guarded divergence search.  Procedures run one after
    another in this order and the first conclusive answer ends the
    cascade; it gives the report's answer and method.  [procedures]
    lists every procedure in order with its wall-clock time; those after
    the conclusive one never run and are reported [cancelled = true],
    [wall_ms = 0.].  Each procedure is sound for the class it is entered
    for, so the first conclusive answer is correct.

    [prune] (default [true]) lets the sticky procedure use subsumption
    pruning ({!Chase_automata.Buchi.with_subsumption}); verdicts are
    unaffected (DESIGN.md §10). *)
val decide_portfolio :
  ?sticky_max_states:int ->
  ?guarded_max_depth:int ->
  ?prune:bool ->
  Chase_core.Tgd.t list ->
  report

val pp_answer : Format.formatter -> answer -> unit
val pp : Format.formatter -> report -> unit
