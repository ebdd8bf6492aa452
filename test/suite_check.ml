(* The differential oracle as a regression suite: replay the committed
   corpus (minimal repros of fixed bugs plus known-clean programs), run
   a fixed-seed fuzzing pass over every profile, and unit-test the
   shrinking and profile plumbing. *)

open Chase_core
open Chase_check

(* dune declares test/corpus/*.chase as deps, so the sandbox has the
   directory next to the test binary; fall back to the source tree when
   running outside dune. *)
let corpus_dir () =
  List.find_opt Sys.file_exists [ "corpus"; "test/corpus"; "../../../test/corpus" ]

let corpus_tests =
  [
    Alcotest.test_case "the committed corpus replays clean" `Quick (fun () ->
        match corpus_dir () with
        | None -> Alcotest.fail "test/corpus not found"
        | Some dir ->
            let entries = Corpus.load_dir dir in
            Alcotest.(check bool) "corpus is non-empty" true (entries <> []);
            List.iter
              (fun e ->
                match Corpus.replay e with
                | Ok () -> ()
                | Error msg -> Alcotest.fail msg)
              entries);
    Alcotest.test_case "corpus serialization round-trips" `Quick (fun () ->
        let tgds =
          Chase_parser.Parser.parse_tgds "g: r(X,c0) -> exists Z. r(Z,X)."
        in
        let db = Instance.of_list [ Atom.make "r" [ Term.Const "a"; Term.Const "c0" ] ] in
        let src = Corpus.source_of_case ~comments:[ "round-trip" ] tgds db in
        let p = Chase_parser.Parser.parse_program src in
        Alcotest.(check int) "one tgd" 1 (List.length (Chase_parser.Program.tgds p));
        Alcotest.(check bool) "same database" true
          (Instance.equal db (Chase_parser.Program.database p)));
  ]

let fuzz_tests =
  [
    Alcotest.test_case "200 fixed-seed cases across all profiles are clean" `Quick (fun () ->
        let report = Harness.run { Harness.default_config with cases = 200; seed = 42 } in
        List.iter
          (fun (f : Harness.failure) ->
            Format.eprintf "fuzz failure (%s, seed %d):@.%s@."
              (Profile.name f.Harness.profile)
              f.Harness.case_seed f.Harness.repro)
          report.Harness.failures;
        Alcotest.(check int) "no failing cases" 0 (List.length report.Harness.failures));
    Alcotest.test_case "the loop is deterministic in the seed" `Quick (fun () ->
        let gen seed = Gen.generate ~profile:{ Profile.klass = Profile.Unrestricted; constants = true } ~seed in
        let c1 = gen 123 and c2 = gen 123 in
        Alcotest.(check bool) "same tgds" true
          (List.equal Tgd.equal c1.Gen.tgds c2.Gen.tgds);
        Alcotest.(check bool) "same database" true
          (Instance.equal c1.Gen.database c2.Gen.database));
    Alcotest.test_case "the oracle is not vacuous: a starved budget trips it" `Quick (fun () ->
        (* Sanity-check the failure path end to end: with a depth budget
           of 1, the exhaustive search finds 2-step derivations of this
           terminating WA set and reports them as divergence evidence
           contradicting the decider's (correct) Terminating answer. *)
        let tgds =
          Chase_parser.Parser.parse_tgds "w0: p0(X) -> exists Z. p1(X,Z).\nw1: p1(X,Y) -> p2(Y)."
        in
        let db =
          Instance.of_list [ Atom.make "p0" [ Term.Const "c0" ]; Atom.make "p0" [ Term.Const "c1" ] ]
        in
        let budgets = { Oracle.default_budgets with Oracle.search_depth = 1 } in
        let ds = Oracle.check ~budgets tgds db in
        Alcotest.(check bool) "decider-termination fires" true
          (List.exists (fun d -> d.Oracle.invariant = "decider-termination") ds));
    Alcotest.test_case "check.* counters are reported" `Quick (fun () ->
        let stats = Obs.Stats.create () in
        Obs.with_sink (Obs.Stats.sink stats) (fun () ->
            ignore
              (Harness.run { Harness.default_config with cases = 10; seed = 1 }));
        Alcotest.(check int) "check.cases" 10 (Obs.Stats.counter stats "check.cases"));
  ]

let shrink_tests =
  [
    Alcotest.test_case "shrinking is 1-minimal on a planted failure" `Quick (fun () ->
        let tgds =
          Chase_parser.Parser.parse_tgds
            "bad: p(X) -> exists Z. p(Z).\n\
             ok1: p(X) -> q(X).\n\
             ok2: q(X) -> s(X)."
        in
        let bad = List.find (fun t -> Tgd.name t = "bad") tgds in
        let key = Atom.make "k" [ Term.Const "c0" ] in
        let db =
          Instance.of_list
            [
              key;
              Atom.make "p" [ Term.Const "c1" ];
              Atom.make "q" [ Term.Const "c2" ];
              Atom.make "s" [ Term.Const "c3" ];
            ]
        in
        (* "Fails" iff the bad rule and the key fact survive. *)
        let fails ts d = List.exists (fun t -> Tgd.equal t bad) ts && Instance.mem key d in
        let tgds', db' = Shrink.minimize ~fails tgds db in
        Alcotest.(check int) "one rule left" 1 (List.length tgds');
        Alcotest.(check bool) "the bad rule" true (Tgd.equal (List.hd tgds') bad);
        Alcotest.(check int) "one fact left" 1 (Instance.cardinal db');
        Alcotest.(check bool) "the key fact" true (Instance.mem key db'));
    Alcotest.test_case "shrink trials are counted" `Quick (fun () ->
        let stats = Obs.Stats.create () in
        let tgds = Chase_parser.Parser.parse_tgds "a: p(X) -> q(X).\nb: q(X) -> s(X)." in
        let db = Instance.of_list [ Atom.make "p" [ Term.Const "c0" ] ] in
        Obs.with_sink (Obs.Stats.sink stats) (fun () ->
            ignore (Shrink.minimize ~fails:(fun ts _ -> ts <> []) tgds db));
        Alcotest.(check bool) "check.shrink_steps > 0" true
          (Obs.Stats.counter stats "check.shrink_steps" > 0));
  ]

let profile_tests =
  [
    Alcotest.test_case "profile names round-trip" `Quick (fun () ->
        List.iter
          (fun p ->
            match Profile.of_name (Profile.name p) with
            | Ok p' -> Alcotest.(check bool) (Profile.name p) true (p = p')
            | Error e -> Alcotest.fail e)
          Profile.all);
    Alcotest.test_case "unknown profile names are refused" `Quick (fun () ->
        match Profile.of_name "turbo" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an error");
  ]

let suite =
  [
    ("check-corpus", corpus_tests);
    ("check-fuzz", fuzz_tests);
    ("check-shrink", shrink_tests @ profile_tests);
  ]
