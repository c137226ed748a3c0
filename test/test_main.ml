let () =
  Alcotest.run "ids"
    (Test_bignum.suite @ Test_graph.suite @ Test_network.suite @ Test_hash.suite @ Test_aggregation.suite
    @ Test_engine.suite @ Test_protocols.suite @ Test_faults.suite @ Test_lowerbound.suite
    @ Test_extensions.suite
    @ Test_obs.suite
    @ Test_strategy.suite
    @ Test_features.suite @ Test_properties.suite @ Test_integration.suite @ Test_setup.suite
    @ Test_serve.suite @ Test_telemetry.suite @ Test_scale.suite @ Test_row_pins.suite)
