(* A decision procedure for CTres∀∀(G) (paper Theorem 5.1) — with the
   substitution documented in DESIGN.md.

   The paper decides the problem by reducing to MSOL satisfiability over
   infinite trees of bounded degree (§5.3); that reduction is k-EXPTIME
   and has never been implemented for non-toy alphabets.  This module
   implements both *sound* directions as certificate producers:

     - Termination: weak acyclicity, joint acyclicity, then
       model-faithful acyclicity — classic sufficient conditions for
       termination of the restricted chase on every database — prove
       T ∈ CTres∀∀.
     - Non-termination: a database D together with divergence evidence (a
       derivation prefix exceeding the depth budget, validated as a real
       restricted chase derivation).  For acyclic D, the evidence is
       strengthened along the paper's own §5 pipeline: the derivation is
       encoded as a chaseable abstract join tree (Def 5.8/5.10) —
       precisely the object the MSOL formula looks for — and, when D is
       cyclic, the Treeification Theorem construction (Thm 5.5) is run to
       produce an acyclic database with the same behaviour.

   When neither certificate is found within the budgets, the answer is
   [No_divergence_found] with the search statistics — evidence, not
   proof.  On the gallery of TGD sets with known ground truth (see the
   workload library and the tests), the procedure is always conclusive
   and correct. *)

open Chase_core
open Chase_engine
open Chase_classes

type termination_proof = Weakly_acyclic | Jointly_acyclic | Model_faithful_acyclic

type evidence = {
  database : Instance.t;  (* the witnessing database *)
  derivation : Derivation.t;  (* a diverging derivation prefix on it *)
  acyclic : bool;  (* whether [database] is acyclic (Def 5.4) *)
  treeified : Treeify.result option;  (* Thm 5.5 run, when [database] is cyclic *)
  abstract_tree : Abstract_join_tree.t option;  (* Def 5.8 encoding, when acyclic *)
  chaseable : bool;  (* Def 5.10 check on the abstract tree *)
}

type search_report = { candidates : int; explored_states : int }

type verdict =
  | Terminating of termination_proof
  | Non_terminating of evidence
  | No_divergence_found of search_report

let require_guarded tgds =
  if not (Guardedness.is_guarded tgds) then
    invalid_arg "Guarded_decider: guarded TGDs required";
  List.iter
    (fun t ->
      if not (Tgd.is_single_head t) then
        invalid_arg "Guarded_decider: single-head TGDs required")
    tgds

(* Freeze the body of a TGD into a database: each variable becomes a
   distinct constant, or one shared constant when [unify] is set. *)
let frozen_body ?(unify = false) tgd =
  let sub =
    Term.Set.fold
      (fun x acc ->
        match x with
        | Term.Var v ->
            Substitution.bind x
              (Term.Const (if unify then "u" else "fb_" ^ v))
              acc
        | Term.Const _ | Term.Null _ -> acc)
      (Tgd.body_vars tgd) Substitution.empty
  in
  Instance.of_list (List.map (Substitution.apply_atom sub) (Tgd.body tgd))

(* The oblivious-chase critical database: every R(c,…,c) (Marnette'09).
   Not critical for the restricted chase (§1.2) but a useful candidate. *)
let critical_database tgds =
  let schema = Schema.of_tgds tgds in
  Schema.fold
    (fun p ar acc -> Instance.add (Atom.make p (List.init ar (fun _ -> Term.Const "c"))) acc)
    schema Instance.empty

(* Frozen bodies under every partition of the body variables: unifying
   variables can create triggers for other TGDs or deactivate heads, so
   the frozen pattern alone is not enough.  Bounded by Bell(#vars); TGDs
   with more than [max_partition_vars] variables fall back to the
   none/all pair. *)
let max_partition_vars = 5

let frozen_bodies_all_partitions tgd =
  let vars = Term.Set.elements (Tgd.body_vars tgd) in
  let n = List.length vars in
  if n = 0 then [ frozen_body tgd ]
  else if n > max_partition_vars then [ frozen_body tgd; frozen_body ~unify:true tgd ]
  else
    Equality_type.partitions n
    |> List.map (fun classes ->
           let sub =
             List.fold_left2
               (fun acc v cls ->
                 Substitution.bind v (Term.Const (Printf.sprintf "fb%d" cls)) acc)
               Substitution.empty vars (Array.to_list classes)
           in
           Instance.of_list (List.map (Substitution.apply_atom sub) (Tgd.body tgd)))

(* The candidate family the divergence search sweeps. *)
let candidate_databases tgds =
  let per_tgd = List.concat_map frozen_bodies_all_partitions tgds in
  let union_of_bodies =
    List.fold_left
      (fun acc t -> Instance.union acc (frozen_body t))
      Instance.empty
      (Tgd.rename_apart tgds)
  in
  let all = (critical_database tgds :: per_tgd) @ [ union_of_bodies ] in
  (* dedupe *)
  let rec dedup seen = function
    | [] -> List.rev seen
    | d :: rest ->
        if List.exists (Instance.equal d) seen then dedup seen rest else dedup (d :: seen) rest
  in
  dedup [] all

let default_max_depth = 200

let obs_proof proof =
  if Obs.enabled () then
    Obs.event "guarded.proof"
      [
        ( "method",
          Obs.Str
            (match proof with
            | Weakly_acyclic -> "weakly_acyclic"
            | Jointly_acyclic -> "jointly_acyclic"
            | Model_faithful_acyclic -> "mfa") );
      ]

(* The candidate-database divergence sweep on its own — the
   non-termination half of [decide], also run directly by
   [Decider.decide] (which takes the acyclicity ladder from elsewhere).
   Candidates are searched in order and the first hit wins. *)
let search_divergence ?(max_depth = default_max_depth) ?max_states tgds =
  require_guarded tgds;
  Obs.span "guarded.search" @@ fun () ->
  let candidates = candidate_databases tgds in
  let n = List.length candidates in
  Obs.gauge "guarded.candidates" n;
  let rec sweep explored = function
    | [] -> No_divergence_found { candidates = n; explored_states = explored }
    | database :: rest -> (
        Obs.incr "guarded.candidates.searched";
        match Derivation_search.divergence_evidence ~max_depth ?max_states tgds database with
        | None -> sweep (explored + 1) rest
        | Some derivation ->
            let acyclic = Join_tree.is_acyclic database in
            let treeified =
              if acyclic then None
              else
                match Treeify.treeify ~chase_budget:max_depth tgds database with
                | Ok r -> Some r
                | Error _ -> None
            in
            (* encode the strongest available acyclic witness *)
            let enc_db, enc_derivation =
              match treeified with
              | Some r -> (r.Treeify.dac, r.Treeify.evidence)
              | None -> (database, derivation)
            in
            let abstract_tree =
              if Join_tree.is_acyclic enc_db then
                match Abstract_join_tree.encode tgds ~database:enc_db enc_derivation with
                | Ok t -> Some t
                | Error _ -> None
              else None
            in
            let chaseable =
              match abstract_tree with
              | Some t -> Abstract_join_tree.is_chaseable tgds t = Ok ()
              | None -> false
            in
            if Obs.enabled () then
              Obs.event "guarded.certificate"
                [
                  ("database_atoms", Obs.Int (Instance.cardinal database));
                  ("derivation_steps", Obs.Int (Derivation.length derivation));
                  ("acyclic", Obs.Bool acyclic);
                  ("chaseable", Obs.Bool chaseable);
                ];
            Non_terminating { database; derivation; acyclic; treeified; abstract_tree; chaseable })
  in
  sweep 0 candidates

let decide ?max_depth ?max_states tgds =
  require_guarded tgds;
  Obs.span "guarded.decide" @@ fun () ->
  if Weak_acyclicity.is_weakly_acyclic tgds then begin
    obs_proof Weakly_acyclic;
    Terminating Weakly_acyclic
  end
  else if Joint_acyclicity.is_jointly_acyclic tgds then begin
    obs_proof Jointly_acyclic;
    Terminating Jointly_acyclic
  end
  else if Mfa.is_mfa tgds then begin
    obs_proof Model_faithful_acyclic;
    Terminating Model_faithful_acyclic
  end
  else search_divergence ?max_depth ?max_states tgds
