(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "lcmm"
    [ ("tensor", Test_tensor.suite);
      ("op", Test_op.suite);
      ("graph", Test_graph.suite);
      ("models", Test_models.suite);
      ("fpga", Test_fpga.suite);
      ("accel", Test_accel.suite);
      ("liveness", Test_liveness.suite);
      ("interference", Test_interference.suite);
      ("coloring", Test_coloring.suite);
      ("metric", Test_metric.suite);
      ("prefetch", Test_prefetch.suite);
      ("dnnk", Test_dnnk.suite);
      ("splitting", Test_splitting.suite);
      ("policies", Test_policies.suite);
      ("framework", Test_framework.suite);
      ("plan-gen", Test_plan_gen.suite);
      ("design-space", Test_design_space.suite);
      ("sim", Test_sim.suite);
      ("refine", Test_refine.suite);
      ("serial", Test_serial.suite);
      ("schedule", Test_schedule.suite);
      ("slicing", Test_slicing.suite);
      ("integration", Test_integration.suite);
      ("exact", Test_exact.suite);
      ("report", Test_report.suite);
      ("interp", Test_interp.suite);
      ("placement", Test_placement.suite);
      ("traffic", Test_traffic.suite);
      ("matrix", Test_matrix.suite);
      ("reproduction", Test_reproduction.suite);
      ("service", Test_service.suite);
      ("tier", Test_tier.suite);
      ("runtime", Test_runtime.suite);
      ("fault", Test_fault.suite);
      ("fusion", Test_fusion.suite);
      ("check", Test_check.suite) ]
