let () =
  Alcotest.run "satg"
    (List.concat
       [
         Test_logic.suites;
         Test_bdd.suites;
         Test_circuit.suites;
         Test_sim.suites;
         Test_kernel.suites;
         Test_rails.suites;
         Test_sg.suites;
         Test_stg.suites;
         Test_atpg.suites;
         Test_random_circuits.suites;
         Test_suite_benchmarks.suites;
         Test_report.suites;
         Test_extensions.suites;
         Test_timed.suites;
         Test_robustness.suites;
         Test_sat.suites;
         Test_domains.suites;
         Test_store.suites;
         Test_concepts.suites;
         Test_families.suites;
         Test_server.suites;
       ])
