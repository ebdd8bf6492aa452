(* The facade: decide CTres∀∀ for a TGD set by dispatching on its class.

     sticky  → the Büchi-automaton procedure (sound and complete, §6);
     guarded → weak acyclicity + certificate search (§5; see DESIGN.md
               for the substitution of the MSOL step);
     else    → weak acyclicity only (sound for "terminating").

   [decide_portfolio] instead runs every procedure that is sound for
   the classified class — weak acyclicity, joint acyclicity, MFA, the
   sticky Büchi procedure and the guarded divergence search — as a
   cascade in that order, stopping at the first conclusive answer
   (DESIGN.md §10). *)

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
  | Portfolio  (* portfolio cascade; no single procedure was conclusive *)

type procedure_report = {
  procedure : method_used;
  outcome : answer;
  conclusive : bool;
  cancelled : bool;  (* never started: an earlier procedure was conclusive *)
  wall_ms : float;
  note : string;
}

type report = {
  classification : Classification.report;
  answer : answer;
  method_used : method_used;
  detail : string;
  procedures : procedure_report list;  (* per-procedure outcomes; [] in fixed dispatch *)
}

let method_name = function
  | Sticky_buchi -> "sticky-buchi"
  | Guarded_search -> "guarded-search"
  | Weak_acyclicity_check -> "weak-acyclicity"
  | Joint_acyclicity_check -> "joint-acyclicity"
  | Mfa_check -> "mfa"
  | Portfolio -> "portfolio"

let decide ?(sticky_max_states = 50_000) ?(guarded_max_depth = 200) tgds =
  let classification = Classification.classify tgds in
  (* The §5/§6 procedures assume the paper's constant-free setting; a
     set mentioning constants is answered by weak acyclicity below
     (sound with constants) rather than crashing those procedures. *)
  let constant_free = Tgd.constant_free_set tgds in
  if
    constant_free && classification.Classification.single_head
    && classification.Classification.sticky
  then
    let verdict = Sticky_decider.decide ~max_states:sticky_max_states tgds in
    let answer, detail =
      match verdict with
      | Sticky_decider.All_terminating -> (Terminating, "L(A_T) = ∅")
      | Sticky_decider.Non_terminating cert ->
          ( Non_terminating,
            Printf.sprintf "caterpillar lasso found (prefix %d, cycle %d)"
              (List.length cert.Sticky_decider.lasso.Chase_automata.Buchi.prefix)
              (List.length cert.Sticky_decider.lasso.Chase_automata.Buchi.cycle) )
      | Sticky_decider.Inconclusive m -> (Unknown, m)
    in
    { classification; answer; method_used = Sticky_buchi; detail; procedures = [] }
  else if
    constant_free && classification.Classification.single_head
    && classification.Classification.guarded
  then
    let verdict = Guarded_decider.decide ~max_depth:guarded_max_depth tgds in
    let answer, detail =
      match verdict with
      | Guarded_decider.Terminating Guarded_decider.Weakly_acyclic ->
          (Terminating, "weakly acyclic")
      | Guarded_decider.Terminating Guarded_decider.Jointly_acyclic ->
          (Terminating, "jointly acyclic")
      | Guarded_decider.Terminating Guarded_decider.Model_faithful_acyclic ->
          (Terminating, "model-faithful acyclic (MFA)")
      | Guarded_decider.Non_terminating ev ->
          ( Non_terminating,
            Printf.sprintf "diverging database found (%d atoms, acyclic: %b, chaseable AJT: %b)"
              (Instance.cardinal ev.Guarded_decider.database)
              ev.Guarded_decider.acyclic ev.Guarded_decider.chaseable )
      | Guarded_decider.No_divergence_found r ->
          ( Unknown,
            Printf.sprintf "no divergence among %d candidate databases"
              r.Guarded_decider.candidates )
    in
    { classification; answer; method_used = Guarded_search; detail; procedures = [] }
  else
    let wa = classification.Classification.weakly_acyclic in
    {
      classification;
      answer = (if wa then Terminating else Unknown);
      method_used = Weak_acyclicity_check;
      detail =
        (if wa then "weakly acyclic"
         else if not constant_free then
           "mentions constants (outside the paper's constant-free procedures); not weakly \
            acyclic"
         else "outside the decidable classes implemented");
      procedures = [];
    }

(* --- the portfolio ---------------------------------------------------

   Soundness lattice (DESIGN.md §10): WA, JA and MFA are sufficient
   conditions valid for every TGD set (MFA only in the constant-free
   setting our critical database covers), so their only conclusive
   answer is Terminating.  The sticky procedure is sound and complete
   on constant-free single-head sticky sets (both answers conclusive);
   the guarded divergence search produces validated non-termination
   certificates on constant-free single-head guarded sets (only
   Non_terminating is conclusive).  Every procedure below is only
   entered when its validity precondition holds, so any conclusive
   answer is correct and the cascade may stop at the first one. *)

let portfolio_procedures classification ~constant_free =
  let cls_ok =
    constant_free && classification.Classification.single_head
  in
  [ Some Weak_acyclicity_check; Some Joint_acyclicity_check ]
  @ [ (if constant_free then Some Mfa_check else None) ]
  @ [ (if cls_ok && classification.Classification.sticky then Some Sticky_buchi else None) ]
  @ [ (if cls_ok && classification.Classification.guarded then Some Guarded_search else None) ]
  |> List.filter_map Fun.id

let run_procedure ~sticky_max_states ~guarded_max_depth ~prune tgds = function
  | Weak_acyclicity_check ->
      if Weak_acyclicity.is_weakly_acyclic tgds then (Terminating, "weakly acyclic")
      else (Unknown, "not weakly acyclic")
  | Joint_acyclicity_check ->
      if Joint_acyclicity.is_jointly_acyclic tgds then (Terminating, "jointly acyclic")
      else (Unknown, "not jointly acyclic")
  | Mfa_check -> (
      match Mfa.decide tgds with
      | Mfa.Mfa { atoms } ->
          (Terminating, Printf.sprintf "model-faithful acyclic (%d atoms)" atoms)
      | Mfa.Cyclic_term { var; _ } ->
          (Unknown, Printf.sprintf "cyclic skolem term on %s (not MFA)" var)
      | Mfa.Budget { atoms } ->
          (Unknown, Printf.sprintf "MFA budget exhausted (%d atoms)" atoms))
  | Sticky_buchi -> (
      match Sticky_decider.decide ~max_states:sticky_max_states ~prune tgds with
      | Sticky_decider.All_terminating -> (Terminating, "L(A_T) = ∅")
      | Sticky_decider.Non_terminating cert ->
          ( Non_terminating,
            Printf.sprintf "caterpillar lasso found (prefix %d, cycle %d)"
              (List.length cert.Sticky_decider.lasso.Chase_automata.Buchi.prefix)
              (List.length cert.Sticky_decider.lasso.Chase_automata.Buchi.cycle) )
      | Sticky_decider.Inconclusive m -> (Unknown, m))
  | Guarded_search -> (
      match Guarded_decider.search_divergence ~max_depth:guarded_max_depth tgds with
      | Guarded_decider.Terminating _ -> (Terminating, "acyclicity ladder")  (* unreachable *)
      | Guarded_decider.Non_terminating ev ->
          ( Non_terminating,
            Printf.sprintf "diverging database found (%d atoms, acyclic: %b, chaseable AJT: %b)"
              (Instance.cardinal ev.Guarded_decider.database)
              ev.Guarded_decider.acyclic ev.Guarded_decider.chaseable )
      | Guarded_decider.No_divergence_found r ->
          ( Unknown,
            Printf.sprintf "no divergence among %d candidate databases"
              r.Guarded_decider.candidates ))
  | Portfolio -> (Unknown, "not a procedure")

let decide_portfolio ?(sticky_max_states = 50_000) ?(guarded_max_depth = 200)
    ?(prune = true) tgds =
  Obs.span "decider.portfolio" @@ fun () ->
  let classification = Classification.classify tgds in
  let constant_free = Tgd.constant_free_set tgds in
  let procs = portfolio_procedures classification ~constant_free in
  let run p =
    let started = Obs.now () in
    let outcome, note =
      try run_procedure ~sticky_max_states ~guarded_max_depth ~prune tgds p
      with e -> (Unknown, "raised: " ^ Printexc.to_string e)
    in
    {
      procedure = p;
      outcome;
      conclusive = outcome <> Unknown;
      cancelled = false;
      wall_ms = (Obs.now () -. started) *. 1000.;
      note;
    }
  in
  let skipped p =
    {
      procedure = p;
      outcome = Unknown;
      conclusive = false;
      cancelled = true;
      wall_ms = 0.;
      note = "cancelled before start";
    }
  in
  (* Priority order; the first conclusive answer ends the cascade. *)
  let rec cascade = function
    | [] -> []
    | p :: rest ->
        let r = run p in
        r :: (if r.conclusive then List.map skipped rest else cascade rest)
  in
  let results = cascade procs in
  if Obs.enabled () then
    List.iter
      (fun r ->
        Obs.event "portfolio.procedure"
          [
            ("name", Obs.Str (method_name r.procedure));
            ( "outcome",
              Obs.Str
                (match r.outcome with
                | Terminating -> "terminating"
                | Non_terminating -> "non-terminating"
                | Unknown -> "unknown") );
            ("conclusive", Obs.Bool r.conclusive);
            ("cancelled", Obs.Bool r.cancelled);
            ("wall_ms", Obs.Float r.wall_ms);
          ])
      results;
  match List.find_opt (fun r -> r.conclusive) results with
  | Some w ->
      {
        classification;
        answer = w.outcome;
        method_used = w.procedure;
        detail = w.note;
        procedures = results;
      }
  | None ->
      {
        classification;
        answer = Unknown;
        method_used = Portfolio;
        detail =
          Printf.sprintf "no conclusive answer among %d procedures" (List.length procs);
        procedures = results;
      }

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
  | Portfolio -> "portfolio (inconclusive)"

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,answer: %a (%s)@,detail: %s@]" Classification.pp
    r.classification pp_answer r.answer
    (method_description r.method_used)
    r.detail;
  if r.procedures <> [] then begin
    Format.fprintf ppf "@,portfolio:";
    List.iter
      (fun p ->
        Format.fprintf ppf "@,  %-16s %-15s %7.1f ms%s  %s" (method_name p.procedure)
          (match p.outcome with
          | Terminating -> "terminating"
          | Non_terminating -> "non-terminating"
          | Unknown -> "unknown")
          p.wall_ms
          (if p.cancelled then " (cancelled)" else "")
          p.note)
      r.procedures
  end
