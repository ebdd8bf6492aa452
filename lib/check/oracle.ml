(* The differential oracle (see oracle.mli for the invariant catalogue).

   Structure: each section is wrapped in [guarded], so an engine that
   raises turns into an [engine-crash] discrepancy instead of killing
   the fuzzing loop; budget-truncated runs silently skip the checks
   that would need the missing tail. *)

open Chase_core
open Chase_engine

type discrepancy = { invariant : string; detail : string }

type budgets = {
  restricted_steps : int;
  oblivious_steps : int;
  ochase_nodes : int;
  search_depth : int;
  search_states : int;
}

let default_budgets =
  {
    restricted_steps = 300;
    oblivious_steps = 600;
    ochase_nodes = 400;
    search_depth = 48;
    search_states = 2_000;
  }

let pp_discrepancy ppf d = Format.fprintf ppf "[%s] %s" d.invariant d.detail

let fail invariant fmt = Format.kasprintf (fun detail -> [ { invariant; detail } ]) fmt

(* Run [f]; an exception becomes an [engine-crash] discrepancy tagged
   with the section that raised. *)
let guarded section f =
  match f () with
  | ds -> ds
  | exception e ->
      [
        {
          invariant = "engine-crash";
          detail = Printf.sprintf "%s raised %s" section (Printexc.to_string e);
        };
      ]

let strategies = [ Restricted.Fifo; Restricted.Lifo; Restricted.Random 7 ]

let status_name = function
  | Derivation.Terminated -> "terminated"
  | Derivation.Out_of_budget -> "out-of-budget"

(* Bit-identical derivations: status, step triggers, produced atoms,
   final instance. *)
let compare_derivations ~invariant ~what d1 d2 =
  if Derivation.status d1 <> Derivation.status d2 then
    fail invariant "%s: status %s vs %s" what
      (status_name (Derivation.status d1))
      (status_name (Derivation.status d2))
  else if Derivation.length d1 <> Derivation.length d2 then
    fail invariant "%s: %d vs %d steps" what (Derivation.length d1) (Derivation.length d2)
  else
    let diverging =
      List.find_opt
        (fun (s1, s2) ->
          not
            (Trigger.equal s1.Derivation.trigger s2.Derivation.trigger
            && List.equal Atom.equal s1.Derivation.produced s2.Derivation.produced))
        (List.combine (Derivation.steps d1) (Derivation.steps d2))
    in
    match diverging with
    | Some (s1, s2) ->
        fail invariant "%s: step %d applies %s vs %s" what s1.Derivation.index
          (Trigger.to_string s1.Derivation.trigger)
          (Trigger.to_string s2.Derivation.trigger)
    | None ->
        if not (Instance.equal (Derivation.final d1) (Derivation.final d2)) then
          fail invariant "%s: equal steps but different final instances" what
        else []

(* Fact 3.5: the applied trigger must be active via the ≺s
   characterization on the instance it fired on. *)
let check_stop_relation ~what tgds d =
  if not (List.for_all Tgd.is_single_head tgds) then []
  else
    let steps = Derivation.steps d in
    let checked = ref 0 in
    List.concat_map
      (fun (k, step) ->
        if !checked >= 100 then []
        else begin
          incr checked;
          let before = Derivation.instance_at d k in
          if Stop.is_active_via_stop before step.Derivation.trigger then []
          else
            fail "stop-relation" "%s: step %d trigger %s is ≺s-stopped yet was applied" what
              step.Derivation.index
              (Trigger.to_string step.Derivation.trigger)
        end)
      (List.mapi (fun k s -> (k, s)) steps)

let check_restricted ~budgets ~backends tgds db =
  let max_steps = budgets.restricted_steps in
  List.concat_map
    (fun strategy ->
      let sname = Restricted.strategy_name strategy in
      guarded (Printf.sprintf "restricted(%s)" sname) @@ fun () ->
      let run backend =
        Restricted.run ~backend ~strategy ~max_steps ~naming:`Canonical tgds db
      in
      let d_naive = run `Naive in
      let store_runs =
        List.map (fun b -> ((b :> Restricted.backend), run (b :> Restricted.backend))) backends
      in
      let agree =
        List.concat_map
          (fun (backend, d) ->
            compare_derivations ~invariant:"backend-agreement"
              ~what:
                (Printf.sprintf "restricted/%s naive-vs-%s" sname
                   (Restricted.backend_name backend))
              d_naive d)
          store_runs
      in
      let valid =
        List.concat_map
          (fun (backend, d) ->
            if Derivation.validate tgds d then []
            else
              fail "derivation-valid" "restricted/%s %s derivation fails validation" sname
                (Restricted.backend_name backend))
          ((`Naive, d_naive) :: store_runs)
      in
      let model =
        if Derivation.status d_naive <> Derivation.Terminated then []
        else if Model_check.is_model ~database:db ~tgds (Derivation.final d_naive) then []
        else fail "model" "restricted/%s terminated on a non-model" sname
      in
      let stop = check_stop_relation ~what:(Printf.sprintf "restricted/%s" sname) tgds d_naive in
      agree @ valid @ model @ stop)
    strategies

let check_oblivious ~budgets ~backends tgds db =
  let max_steps = budgets.oblivious_steps in
  List.concat_map
    (fun (variant, vname) ->
      guarded (Printf.sprintf "oblivious(%s)" vname) @@ fun () ->
      let r1 = Oblivious.run ~backend:`Naive ~variant ~max_steps tgds db in
      List.concat_map
        (fun b ->
          let other = Restricted.backend_name (b :> Restricted.backend) in
          let r2 = Oblivious.run ~backend:(b :> Oblivious.backend) ~variant ~max_steps tgds db in
          if
            not
              (Instance.equal r1.Oblivious.instance r2.Oblivious.instance
              && r1.Oblivious.applications = r2.Oblivious.applications
              && r1.Oblivious.saturated = r2.Oblivious.saturated)
          then
            fail "backend-agreement" "%s: naive (%d apps, saturated %b) vs %s (%d apps, %b)"
              vname r1.Oblivious.applications r1.Oblivious.saturated other
              r2.Oblivious.applications r2.Oblivious.saturated
          else [])
        backends)
    [ (Oblivious.Oblivious, "oblivious"); (Oblivious.Semi_oblivious, "semi-oblivious") ]

(* When both chases complete, restricted and oblivious results are both
   universal models of (D, T), hence hom-equivalent. *)
let check_universality ~budgets tgds db =
  guarded "universality" @@ fun () ->
  let obl = Oblivious.run ~variant:Oblivious.Oblivious ~max_steps:budgets.oblivious_steps tgds db in
  if not obl.Oblivious.saturated then []
  else
    let d =
      Restricted.run ~strategy:Restricted.Fifo ~max_steps:budgets.restricted_steps
        ~naming:`Canonical tgds db
    in
    if Derivation.status d <> Derivation.Terminated then []
    else
      let final = Derivation.final d in
      let into =
        if Model_check.maps_into obl.Oblivious.instance ~into:final then []
        else fail "oblivious-universal" "oblivious result does not map into the restricted model"
      in
      let back =
        if Model_check.maps_into final ~into:obl.Oblivious.instance then []
        else fail "oblivious-universal" "restricted model does not map into the oblivious result"
      in
      into @ back

(* Def 3.3 vs §3.1: a complete ochase's atom *set* is the saturated
   oblivious chase (canonical nulls make this literal set equality). *)
let check_ochase ~budgets tgds db =
  if not (List.for_all Tgd.is_single_head tgds) then []
  else
    guarded "ochase" @@ fun () ->
    let g = Real_oblivious.build ~max_nodes:budgets.ochase_nodes ~max_depth:64 tgds db in
    if not (Real_oblivious.complete g) then []
    else
      let obl =
        Oblivious.run ~variant:Oblivious.Oblivious ~max_steps:budgets.oblivious_steps tgds db
      in
      if not obl.Oblivious.saturated then []
      else if Instance.equal (Real_oblivious.atom_set g) obl.Oblivious.instance then []
      else
        fail "ochase-atoms" "ochase atom set (%d atoms) ≠ oblivious chase (%d atoms)"
          (Instance.cardinal (Real_oblivious.atom_set g))
          (Instance.cardinal obl.Oblivious.instance)

(* Incremental maintenance (lib/engine/incremental.ml): replay the
   database as a deterministic assert/chase interleaving — k batches,
   a chase after each — and require the warm session's final instance
   to be a model of the accumulated facts, hom-equivalent to the
   from-scratch chase.  Skipped (not failed) when either side runs out
   of budget.  The split is by atom index modulo k over the instance's
   canonical atom order, so the interleaving is reproducible from the
   case alone. *)
let check_incremental ~budgets ~backends tgds db =
  guarded "incremental" @@ fun () ->
  let max_steps = budgets.restricted_steps in
  let scratch =
    Restricted.run ~strategy:Restricted.Fifo ~max_steps ~naming:`Canonical tgds db
  in
  if Derivation.status scratch <> Derivation.Terminated then []
  else
    let atoms = Instance.to_list db in
    List.concat_map
      (fun (k, backend) ->
        let bname = Restricted.backend_name (backend :> Restricted.backend) in
        let batch i = List.filteri (fun j _ -> j mod k = i) atoms in
        let s = Incremental.create ~strategy:Restricted.Fifo ~backend tgds Instance.empty in
        let exhausted = ref false in
        for i = 0 to k - 1 do
          if not !exhausted then begin
            ignore (Incremental.assert_atoms s (batch i));
            let o = Incremental.chase ~max_steps s in
            if not o.Incremental.saturated then exhausted := true
          end
        done;
        if !exhausted then []
        else
          let final = Incremental.instance s in
          let model =
            if Model_check.is_model ~database:db ~tgds final then []
            else
              fail "incremental-equivalence"
                "interleaving k=%d/%s: warm session result is not a model of the accumulated \
                 facts"
                k bname
          in
          let equiv =
            if Model_check.hom_equivalent final (Derivation.final scratch) then []
            else
              fail "incremental-equivalence"
                "interleaving k=%d/%s: warm session result (%d atoms) is not hom-equivalent \
                 to the from-scratch chase (%d atoms)"
                k bname (Instance.cardinal final)
                (Instance.cardinal (Derivation.final scratch))
          in
          model @ equiv)
      (List.concat_map (fun b -> [ (2, b); (3, b) ]) backends)

let check_decider ~budgets tgds db =
  match Chase_termination.Decider.decide tgds with
  | exception e -> fail "decider-crash" "Decider.decide raised %s" (Printexc.to_string e)
  | report ->
      let open Chase_termination in
      let open Decider in
      let c = report.classification in
      let answer_name = function
        | Terminating -> "terminating"
        | Non_terminating -> "non-terminating"
        | Unknown -> "unknown"
      in
      let wa_exam =
        match (c.Chase_classes.Classification.weakly_acyclic, report.answer) with
        | true, Non_terminating ->
            fail "decider-wa" "weakly acyclic set judged Non_terminating via %s"
              (method_name report.method_used)
        | _ -> []
      in
      (* A [Terminating] answer is ∀∀: no database — in particular not
         this one — may admit divergence evidence.  The depth budget
         sits far beyond the observed terminated lengths, so a hit is a
         genuine contradiction candidate, not noise. *)
      let termination_exam =
        match report.answer with
        | Terminating when List.length tgds <= 4 && Instance.cardinal db <= 10 ->
            guarded "derivation-search" (fun () ->
                match
                  Derivation_search.divergence_evidence ~max_depth:budgets.search_depth
                    ~max_states:budgets.search_states tgds db
                with
                | Some d ->
                    fail "decider-termination"
                      "decider says Terminating but a valid derivation exceeds depth %d (%d \
                       steps)"
                      budgets.search_depth (Derivation.length d)
                | None -> [])
        | _ -> []
      in
      (* The class's exact procedure, run directly under the decider's
         default budgets: [decide] must never contradict it, and must be
         conclusive whenever it is (its cascade runs that procedure, or
         a sound sufficient condition before it). *)
      let exact_exam procedure exact =
        match (report.answer, exact) with
        | Terminating, Non_terminating | Non_terminating, Terminating ->
            fail "decider-exact" "decide says %s via %s but the %s says %s"
              (answer_name report.answer)
              (method_name report.method_used)
              procedure (answer_name exact)
        | Unknown, (Terminating | Non_terminating) ->
            fail "decider-exact" "decide is inconclusive (%s) but the %s says %s"
              report.detail procedure (answer_name exact)
        | _ -> []
      in
      let exact_class =
        Tgd.constant_free_set tgds && c.Chase_classes.Classification.single_head
      in
      let class_exams =
        if exact_class && c.Chase_classes.Classification.sticky then
          guarded "sticky procedure" @@ fun () ->
          let sticky_answer = function
            | Sticky_decider.All_terminating -> Terminating
            | Sticky_decider.Non_terminating _ -> Non_terminating
            | Sticky_decider.Inconclusive _ -> Unknown
          in
          let exact = sticky_answer (Sticky_decider.decide tgds) in
          let pruned = sticky_answer (Sticky_decider.decide ~prune:true tgds) in
          (* Subsumption pruning must never change the sticky verdict
             (DESIGN.md §10); [decide] runs unpruned, so this is where
             pruning is checked. *)
          (if exact = pruned then []
           else
             fail "sticky-prune" "subsumption pruning changed the sticky verdict: %s vs %s"
               (answer_name exact) (answer_name pruned))
          @ exact_exam "sticky Büchi procedure" exact
        else if exact_class && c.Chase_classes.Classification.guarded then
          guarded "guarded procedure" @@ fun () ->
          exact_exam "guarded procedure"
            (match Guarded_decider.decide tgds with
            | Guarded_decider.Terminating _ -> Terminating
            | Guarded_decider.Non_terminating _ -> Non_terminating
            | Guarded_decider.No_divergence_found _ -> Unknown)
        else []
      in
      termination_exam @ wa_exam @ class_exams

let all_store_backends : Store.backend list = [ `Compiled; `Columnar ]

let check ?(budgets = default_budgets) ?(backends = all_store_backends) tgds db =
  check_restricted ~budgets ~backends tgds db
  @ check_oblivious ~budgets ~backends tgds db
  @ check_universality ~budgets tgds db
  @ check_ochase ~budgets tgds db
  @ check_incremental ~budgets ~backends tgds db
  @ check_decider ~budgets tgds db
