(* Aggregated alcotest runner for all suites. *)
let () =
  Alcotest.run "eunomia"
    [
      ("mem", Test_mem.suite);
      ("sim", Test_sim.suite);
      ("htm", Test_htm.suite);
      ("sync", Test_sync.suite);
      ("workload", Test_workload.suite);
      ("bptree", Test_bptree.suite);
      ("index", Test_index.suite);
      ("eunomia", Test_eunomia.suite);
      ("leaf", Test_leaf.suite);
      ("masstree", Test_masstree.suite);
      ("stats", Test_stats.suite);
      ("harness", Test_harness.suite);
      ("fault", Test_fault.suite);
      ("dura", Test_dura.suite);
      ("san", Test_san.suite);
      ("history", Test_history.suite);
      ("check", Test_check.suite);
      ("engine", Test_engine.suite);
      ("determinism", Test_determinism.suite);
      ("pool", Test_pool.suite);
      ("lint", Test_lint.suite);
      ("records", Test_records.suite);
      ("cli", Test_cli.suite);
    ]
