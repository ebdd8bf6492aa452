let () =
  Alcotest.run "chase-repro"
    (Suite_core.suite @ Suite_api.suite @ Suite_parser.suite @ Suite_engine.suite @ Suite_variants.suite
   @ Suite_automata.suite @ Suite_classes.suite
   @ Suite_sticky.suite @ Suite_guarded.suite @ Suite_fairness.suite @ Suite_mfa.suite
   @ Suite_deciders.suite @ Suite_extract.suite @ Suite_finitary.suite @ Suite_msol.suite
   @ Suite_query.suite
   @ Suite_structure.suite @ Suite_negative.suite @ Suite_properties.suite
   @ Suite_compiled.suite @ Suite_obs.suite @ Suite_workload.suite
   @ Suite_scenarios.suite @ Suite_check.suite @ Suite_serve.suite)
