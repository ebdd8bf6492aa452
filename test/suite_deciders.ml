(* Tests for the auxiliary deciders (linear critical-database, oblivious
   critical-database) and cross-validation between independent decision
   procedures — the strongest evidence we have that each is right. *)

open Chase_termination
open Chase_workload

let parse = Chase_parser.Parser.parse_tgds

let linear_tests =
  [
    Alcotest.test_case "fresh successor diverges" `Quick (fun () ->
        match Linear_decider.decide (parse "r(X,Y) -> exists Z. r(Y,Z).") with
        | Linear_decider.Non_terminating ev ->
            Alcotest.(check int) "single-atom witness" 1
              (Chase_core.Instance.cardinal ev.Linear_decider.database)
        | _ -> Alcotest.fail "expected divergence");
    Alcotest.test_case "intro example terminates" `Quick (fun () ->
        match Linear_decider.decide (parse "r(X,Y) -> exists Z. r(X,Z).") with
        | Linear_decider.All_terminating _ -> ()
        | _ -> Alcotest.fail "expected termination");
    Alcotest.test_case "diagonal guard: only the diagonal critical atom fires" `Quick
      (fun () ->
        (* r(X,X) → ∃Z r(X,Z): only the diagonal equality type produces a
           trigger, and r(k,k) satisfies its own head — terminating. *)
        let tgds = parse "r(X,X) -> exists Z. r(X,Z)." in
        Alcotest.(check bool) "linear" true (Chase_classes.Guardedness.is_linear tgds);
        match Linear_decider.decide tgds with
        | Linear_decider.All_terminating _ -> ()
        | _ -> Alcotest.fail "expected termination");
    Alcotest.test_case "linear but not sticky: only the linear decider applies" `Quick
      (fun () ->
        (* the s-rule drops X, marking it back through r's first position,
           so the repeated X in r(X,X) is marked — not sticky; the linear
           decider still answers. *)
        let tgds = parse "s1: r(X,X) -> s(X).\ns2: s(X) -> exists Z. r(Z,Z)." in
        Alcotest.(check bool) "linear" true (Chase_classes.Guardedness.is_linear tgds);
        Alcotest.(check bool) "not sticky" false (Chase_classes.Stickiness.is_sticky tgds);
        match Linear_decider.decide tgds with
        | Linear_decider.All_terminating _ -> ()
        | Linear_decider.Non_terminating _ ->
            (* r(k,k) → s(k) → r(Z,Z)?  s(k) fires only if no r(z,z) atom
               exists — r(k,k) is one, so it never fires: terminating. *)
            Alcotest.fail "expected termination"
        | Linear_decider.Inconclusive m -> Alcotest.failf "inconclusive: %s" m);
    Alcotest.test_case "diagonal-to-chain diverges" `Quick (fun () ->
        (* r(X,X) → ∃Z s(X,Z); s(X,Y) → ∃Z s(Y,Z): only a diagonal atom
           wakes the chain up. *)
        let tgds = parse "r(X,X) -> exists Z. s(X,Z).\ns(X,Y) -> exists Z. s(Y,Z)." in
        match Linear_decider.decide tgds with
        | Linear_decider.Non_terminating _ -> ()
        | _ -> Alcotest.fail "expected divergence");
    Alcotest.test_case "non-linear input rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid" (Invalid_argument "Linear_decider: linear TGDs required")
          (fun () -> ignore (Linear_decider.decide (parse "a(X), b(X) -> c(X)."))));
    Alcotest.test_case "cross-validation: linear vs sticky decider on the gallery" `Quick
      (fun () ->
        List.iter
          (fun (s : Scenarios.t) ->
            let tgds = Scenarios.tgds s in
            if
              Scenarios.single_head s
              && Chase_classes.Guardedness.is_linear tgds
              && Chase_classes.Stickiness.is_sticky tgds
            then
              let lin = Linear_decider.decide tgds in
              let stk = Sticky_decider.decide tgds in
              match (lin, stk) with
              | Linear_decider.All_terminating _, Sticky_decider.All_terminating -> ()
              | Linear_decider.Non_terminating _, Sticky_decider.Non_terminating _ -> ()
              | Linear_decider.Inconclusive _, _ | _, Sticky_decider.Inconclusive _ -> ()
              | _ ->
                  Alcotest.failf "deciders disagree on %s" s.Scenarios.name)
          Scenarios.all);
  ]

(* Property: on random linear ∧ sticky sets, the single-atom critical
   database search and the Büchi automaton agree.  Two completely
   independent procedures — agreement on hundreds of random inputs is
   strong evidence for both. *)
let cross_validation_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"linear and sticky deciders agree on random sticky-linear sets"
       ~count:60 (QCheck2.Gen.int_bound 100_000) (fun seed ->
         let tgds =
           Tgd_gen.sticky_set
             { Tgd_gen.default with Tgd_gen.seed; tgds = 3; predicates = 3; max_arity = 2 }
         in
         if not (Chase_classes.Guardedness.is_linear tgds) then true
         else
           match (Linear_decider.decide tgds, Sticky_decider.decide tgds) with
           | Linear_decider.All_terminating _, Sticky_decider.All_terminating -> true
           | Linear_decider.Non_terminating _, Sticky_decider.Non_terminating _ -> true
           | Linear_decider.Inconclusive _, _ -> true
           | _, Sticky_decider.Inconclusive _ -> true
           | Linear_decider.All_terminating _, Sticky_decider.Non_terminating cert ->
               (* a validated caterpillar overrules the budgeted search *)
               Sticky_decider.check_certificate tgds cert <> Ok ()
           | Linear_decider.Non_terminating _, Sticky_decider.All_terminating -> false))

(* Soundness property for the sticky decider's "terminating" answers:
   when L(A_T) = ∅, no candidate database (frozen bodies under all
   partitions, critical database, unions) may show divergence evidence.
   An unsound "empty" verdict would be caught here. *)
let sticky_terminating_soundness =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sticky 'terminating' verdicts survive candidate-database search"
       ~count:50 (QCheck2.Gen.int_bound 100_000) (fun seed ->
         let tgds =
           Tgd_gen.sticky_set
             { Tgd_gen.default with Tgd_gen.seed; tgds = 4; predicates = 3; max_arity = 2 }
         in
         match Sticky_decider.decide tgds with
         | Sticky_decider.Non_terminating _ | Sticky_decider.Inconclusive _ -> true
         | Sticky_decider.All_terminating ->
             (* sweep the same candidate family the guarded decider uses *)
             List.for_all
               (fun db ->
                 Derivation_search.divergence_evidence ~max_depth:60 ~max_states:3_000 tgds db
                 = None)
               (List.concat_map Guarded_decider.frozen_bodies_all_partitions tgds)))

let oblivious_tests =
  [
    Alcotest.test_case "intro example separates CTres from CTobl" `Quick (fun () ->
        let tgds = parse "r(X,Y) -> exists Z. r(X,Z)." in
        (match Oblivious_decider.decide tgds with
        | Oblivious_decider.Diverging_on_critical _ -> ()
        | Oblivious_decider.All_terminating _ -> Alcotest.fail "oblivious should diverge");
        match Sticky_decider.decide tgds with
        | Sticky_decider.All_terminating -> ()
        | _ -> Alcotest.fail "restricted should terminate");
    Alcotest.test_case "weakly acyclic set: oblivious terminates too" `Quick (fun () ->
        let tgds =
          parse
            "s1: emp(X) -> exists Y. reports(X,Y).\ns2: reports(X,Y) -> mgr(Y).\n\
             s3: mgr(Y) -> person(Y)."
        in
        match Oblivious_decider.decide tgds with
        | Oblivious_decider.All_terminating _ -> ()
        | Oblivious_decider.Diverging_on_critical _ -> Alcotest.fail "expected termination");
    Alcotest.test_case "semi-oblivious terminates where oblivious does not" `Quick
      (fun () ->
        (* r(X,Y) → ∃Z r(X,Z) on r(c,c): the oblivious chase re-fires for
           every fresh Y-binding; the semi-oblivious chase identifies
           triggers agreeing on the frontier {X→c} and stops after one
           application — the classic oblivious/semi-oblivious separation. *)
        let tgds = parse "r(X,Y) -> exists Z. r(X,Z)." in
        (match Oblivious_decider.decide ~variant:Chase_engine.Oblivious.Semi_oblivious tgds with
        | Oblivious_decider.All_terminating _ -> ()
        | Oblivious_decider.Diverging_on_critical _ ->
            Alcotest.fail "semi-oblivious should saturate on the critical database"));
    Alcotest.test_case "Example 5.6: the critical database is not critical for the \
                        restricted chase (§1.2)" `Quick (fun () ->
        let tgds =
          parse
            "s1: s(X,Y) -> t(X).\ns2: r(X,Y), t(Y) -> p(X,Y).\ns3: p(X,Y) -> exists Z. p(Y,Z)."
        in
        (* the restricted chase terminates on D* … *)
        Alcotest.(check bool) "terminates on critical" true
          (Oblivious_decider.restricted_terminates_on_critical tgds);
        (* … yet the set diverges on another database *)
        match Guarded_decider.decide tgds with
        | Guarded_decider.Non_terminating _ -> ()
        | _ -> Alcotest.fail "expected divergence elsewhere");
  ]

(* --- the decider cascade and subsumption pruning ----------------------- *)

(* [decide] against the exact procedure of the set's class, run
   directly: never the opposite answer, and conclusive whenever the
   exact procedure is. *)
let check_against_exact name tgds =
  let answer_name = function
    | Decider.Terminating -> "terminating"
    | Decider.Non_terminating -> "non-terminating"
    | Decider.Unknown -> "unknown"
  in
  let r = Decider.decide tgds in
  let c = r.Decider.classification in
  let exact_class = Chase_core.Tgd.constant_free_set tgds && c.Chase_classes.Classification.single_head in
  let exact =
    if exact_class && c.Chase_classes.Classification.sticky then
      Some
        (match Sticky_decider.decide tgds with
        | Sticky_decider.All_terminating -> Decider.Terminating
        | Sticky_decider.Non_terminating _ -> Decider.Non_terminating
        | Sticky_decider.Inconclusive _ -> Decider.Unknown)
    else if exact_class && c.Chase_classes.Classification.guarded then
      Some
        (match Guarded_decider.decide tgds with
        | Guarded_decider.Terminating _ -> Decider.Terminating
        | Guarded_decider.Non_terminating _ -> Decider.Non_terminating
        | Guarded_decider.No_divergence_found _ -> Decider.Unknown)
    else None
  in
  match exact with
  | Some e when e <> Decider.Unknown && e <> r.Decider.answer ->
      Alcotest.failf "%s: decide says %s via %s, the exact procedure %s" name
        (answer_name r.Decider.answer)
        (Decider.method_name r.Decider.method_used)
        (answer_name e)
  | _ -> r

let cascade_tests =
  [
    Alcotest.test_case "decide_with_stats explores each component exactly once" `Quick
      (fun () ->
        (* regression: Buchi.stats used to re-run explore after emptiness,
           so the buchi.states counter read 2× the reported count *)
        let tgds = parse "r(X,Y) -> exists Z. r(X,Z)." in
        let st = Obs.Stats.create () in
        let stats =
          Obs.with_sink (Obs.Stats.sink st) (fun () -> Sticky_decider.decide_with_stats tgds)
        in
        Alcotest.(check bool) "explored something" true
          (stats.Sticky_decider.explored_states > 0);
        Alcotest.(check int) "buchi.states counter equals reported explored"
          stats.Sticky_decider.explored_states
          (Obs.Stats.counter st "buchi.states"));
    Alcotest.test_case "subsumption pruning preserves sticky verdicts on the gallery" `Quick
      (fun () ->
        List.iter
          (fun (s : Scenarios.t) ->
            let tgds = Scenarios.tgds s in
            if
              Scenarios.single_head s
              && Chase_classes.Stickiness.is_sticky tgds
              && Chase_core.Tgd.constant_free_set tgds
            then
              let exact = Sticky_decider.decide tgds in
              let pruned = Sticky_decider.decide ~prune:true tgds in
              match (exact, pruned) with
              | Sticky_decider.All_terminating, Sticky_decider.All_terminating -> ()
              | Sticky_decider.Non_terminating _, Sticky_decider.Non_terminating _ -> ()
              | Sticky_decider.Inconclusive _, Sticky_decider.Inconclusive _ -> ()
              | _ -> Alcotest.failf "pruning changed the verdict on %s" s.Scenarios.name)
          Scenarios.all);
    Alcotest.test_case "decide agrees with each class's exact procedure" `Quick (fun () ->
        List.iter
          (fun (s : Scenarios.t) ->
            let r = check_against_exact s.Scenarios.name (Scenarios.tgds s) in
            let truth =
              match s.Scenarios.truth with
              | Scenarios.All_terminating -> Decider.Terminating
              | Scenarios.Diverging -> Decider.Non_terminating
            in
            if r.Decider.answer <> Decider.Unknown && r.Decider.answer <> truth then
              Alcotest.failf "decide contradicts the gallery truth on %s" s.Scenarios.name)
          Scenarios.all;
        for seed = 0 to 59 do
          let cfg = { Tgd_gen.default with Tgd_gen.seed } in
          ignore (check_against_exact (Printf.sprintf "sticky %d" seed) (Tgd_gen.sticky_set cfg));
          ignore (check_against_exact (Printf.sprintf "guarded %d" seed) (Tgd_gen.guarded_set cfg));
          let r = check_against_exact (Printf.sprintf "wa %d" seed) (Tgd_gen.weakly_acyclic_set cfg) in
          Alcotest.(check string)
            (Printf.sprintf "wa %d: decided by weak acyclicity" seed)
            "weak-acyclicity"
            (Decider.method_name r.Decider.method_used)
        done);
    Alcotest.test_case "a weakly acyclic sticky set is decided without exploring the automaton"
      `Quick (fun () ->
        let tgds = parse "r(X,Y) -> exists Z. r(X,Z)." in
        let st = Obs.Stats.create () in
        let r = Obs.with_sink (Obs.Stats.sink st) (fun () -> Decider.decide tgds) in
        Alcotest.(check bool) "sticky" true
          r.Decider.classification.Chase_classes.Classification.sticky;
        Alcotest.(check bool) "terminating" true (r.Decider.answer = Decider.Terminating);
        Alcotest.(check string) "method" "weak-acyclicity"
          (Decider.method_name r.Decider.method_used);
        Alcotest.(check int) "buchi.states" 0 (Obs.Stats.counter st "buchi.states"));
  ]

let suite =
  [
    ("linear-decider", linear_tests @ [ cross_validation_property; sticky_terminating_soundness ]);
    ("oblivious-decider", oblivious_tests);
    ("decider-cascade", cascade_tests);
  ]
