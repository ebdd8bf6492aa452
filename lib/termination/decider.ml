(* The facade: decide CTres∀∀ for a TGD set with one cost-ordered
   cascade per class (DESIGN.md §10).

     every set         → weak, then joint acyclicity, both read off the
                         classification (sound sufficient conditions);
     sticky            → the Büchi-automaton procedure (sound and
                         complete, §6), then MFA if it is inconclusive;
     guarded           → MFA, then the divergence search (§5; see
                         DESIGN.md for the substitution of the MSOL step);
     other             → MFA.

   "sticky" and "guarded" mean constant-free and single-head too: the
   §5/§6 procedures and our MFA critical database assume the paper's
   constant-free setting, so a set mentioning constants stops after
   joint acyclicity (sound with constants) rather than crashing them. *)

open Chase_core
open Chase_classes

type answer =
  | Terminating  (* T ∈ CTres∀∀ *)
  | Non_terminating  (* some database admits an infinite derivation *)
  | Unknown

type method_used =
  | Sticky_buchi  (* Theorem 6.1 *)
  | Guarded_search  (* Theorem 5.1 machinery, certificate search *)
  | Weak_acyclicity_check  (* baseline sufficient condition *)
  | Joint_acyclicity_check  (* sufficient condition, subsumes WA *)
  | Mfa_check  (* model-faithful acyclicity, subsumes JA *)

type report = {
  classification : Classification.report;
  answer : answer;
  method_used : method_used;
  detail : string;
}

let method_name = function
  | Sticky_buchi -> "sticky-buchi"
  | Guarded_search -> "guarded-search"
  | Weak_acyclicity_check -> "weak-acyclicity"
  | Joint_acyclicity_check -> "joint-acyclicity"
  | Mfa_check -> "mfa"

let decide ?(sticky_max_states = 50_000) ?(guarded_max_depth = 200) tgds =
  let classification = Classification.classify tgds in
  let verdict answer method_used detail = { classification; answer; method_used; detail } in
  let c = classification in
  let constant_free = Tgd.constant_free_set tgds in
  let exact_class = constant_free && c.Classification.single_head in
  (* MFA's only conclusive answer is Terminating; otherwise [fallback]. *)
  let mfa_or fallback =
    match Mfa.decide tgds with
    | Mfa.Mfa { atoms } ->
        verdict Terminating Mfa_check (Printf.sprintf "model-faithful acyclic (%d atoms)" atoms)
    | Mfa.Cyclic_term _ | Mfa.Budget _ -> fallback ()
  in
  if c.Classification.weakly_acyclic then
    verdict Terminating Weak_acyclicity_check "weakly acyclic"
  else if c.Classification.jointly_acyclic then
    verdict Terminating Joint_acyclicity_check "jointly acyclic"
  else if exact_class && c.Classification.sticky then
    match Sticky_decider.decide ~max_states:sticky_max_states tgds with
    | Sticky_decider.All_terminating -> verdict Terminating Sticky_buchi "L(A_T) = ∅"
    | Sticky_decider.Non_terminating cert ->
        verdict Non_terminating Sticky_buchi
          (Printf.sprintf "caterpillar lasso found (prefix %d, cycle %d)"
             (List.length cert.Sticky_decider.lasso.Chase_automata.Buchi.prefix)
             (List.length cert.Sticky_decider.lasso.Chase_automata.Buchi.cycle))
    | Sticky_decider.Inconclusive m -> mfa_or (fun () -> verdict Unknown Sticky_buchi m)
  else if exact_class && c.Classification.guarded then
    mfa_or @@ fun () ->
    match Guarded_decider.search_divergence ~max_depth:guarded_max_depth tgds with
    | Guarded_decider.Non_terminating ev ->
        verdict Non_terminating Guarded_search
          (Printf.sprintf "diverging database found (%d atoms, acyclic: %b, chaseable AJT: %b)"
             (Instance.cardinal ev.Guarded_decider.database)
             ev.Guarded_decider.acyclic ev.Guarded_decider.chaseable)
    | Guarded_decider.No_divergence_found r ->
        verdict Unknown Guarded_search
          (Printf.sprintf "no divergence among %d candidate databases"
             r.Guarded_decider.candidates)
    | Guarded_decider.Terminating _ -> assert false (* the search never proves termination *)
  else if constant_free then
    mfa_or (fun () ->
        verdict Unknown Weak_acyclicity_check "outside the decidable classes implemented")
  else
    verdict Unknown Weak_acyclicity_check
      "mentions constants (outside the paper's constant-free procedures); not weakly acyclic"

let pp_answer ppf = function
  | Terminating -> Format.pp_print_string ppf "terminating (T ∈ CTres∀∀)"
  | Non_terminating -> Format.pp_print_string ppf "non-terminating"
  | Unknown -> Format.pp_print_string ppf "unknown"

let method_description = function
  | Sticky_buchi -> "sticky Büchi automaton"
  | Guarded_search -> "guarded certificate search"
  | Weak_acyclicity_check -> "weak acyclicity"
  | Joint_acyclicity_check -> "joint acyclicity"
  | Mfa_check -> "model-faithful acyclicity"

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,answer: %a (%s)@,detail: %s@]" Classification.pp
    r.classification pp_answer r.answer
    (method_description r.method_used)
    r.detail
