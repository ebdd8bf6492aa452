(** Model-faithful acyclicity \[Cuenca Grau et al., JAIR'13 — the paper's
    reference 16\]: chase the critical database obliviously and watch for
    cyclic skolem terms.  MFA implies skolem-chase termination on every
    database, hence restricted-chase termination: a sound certificate
    strictly subsuming weak and joint acyclicity. *)

open Chase_core

type verdict =
  | Mfa of { atoms : int }  (** saturated with no cyclic term: certified *)
  | Cyclic_term of { tgd : Tgd.t; var : string }  (** the repeated skolem function *)
  | Budget of { atoms : int }  (** inconclusive *)

val critical_database : Tgd.t list -> Instance.t
val default_max_steps : int

val decide : ?max_steps:int -> Tgd.t list -> verdict

val is_mfa : ?max_steps:int -> Tgd.t list -> bool
