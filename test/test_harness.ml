(* Tests for the harness utilities: workload builders and CSV export.
   (Runner behaviour is covered by test_integration.) *)

module Config = Lion_store.Config
module Workloads = Lion_harness.Workloads
module Export = Lion_harness.Export
module Txn = Lion_workload.Txn

let cfg = Config.default

let test_ycsb_builder_parametrised () =
  let gen = Workloads.ycsb ~cross:1.0 cfg in
  for _ = 1 to 50 do
    Alcotest.(check bool) "cross pairs" true (Txn.is_cross_partition (gen ~time:0.0))
  done

let test_ycsb_builder_reuses_generator () =
  let gen = Workloads.ycsb cfg in
  let a = gen ~time:0.0 and b = gen ~time:0.0 in
  Alcotest.(check bool) "ids advance (one generator)" true (b.Txn.id = a.Txn.id + 1)

let test_tpcc_builder () =
  let gen = Workloads.tpcc ~skew:0.5 ~cross:0.5 cfg in
  let t = gen ~time:0.0 in
  Alcotest.(check bool) "has operations" true (t.Txn.ops <> [])

let test_dynamic_builder_respects_time () =
  let gen = Workloads.dynamic_position ~period:2.0 cfg in
  (* Phase C (100% cross) starts at 2 periods. *)
  let crosses = ref 0 in
  for _ = 1 to 50 do
    if Txn.is_cross_partition (gen ~time:(Lion_sim.Engine.seconds 5.0)) then incr crosses
  done;
  Alcotest.(check int) "phase C all cross" 50 !crosses

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_csv_escaping () =
  let path = Filename.temp_file "lion" ".csv" in
  Export.write_csv ~path ~header:[ "a"; "b" ]
    ~rows:[ [ "plain"; "with,comma" ]; [ "with\"quote"; "multi\nline" ] ];
  let content = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "comma quoted" true
    (String.length content > 0
    &&
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    contains content "\"with,comma\"" && contains content "\"with\"\"quote\"")

let test_series_csv_shape () =
  let path = Filename.temp_file "lion" ".csv" in
  Export.series_csv ~path [ ("x", [| 1.0; 2.0 |]); ("y", [| 3.0 |]) ];
  let content = read_file path in
  Sys.remove path;
  let lines = String.split_on_char '\n' (String.trim content) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "second,x,y" (List.hd lines);
  Alcotest.(check string) "padding" "2,2.0," (List.nth lines 2)

let test_result_rows_header_matches_rows () =
  let header, rows = Export.result_rows [] in
  Alcotest.(check bool) "header non-empty" true (header <> []);
  List.iter
    (fun col ->
      Alcotest.(check bool) (col ^ " column present") true (List.mem col header))
    [
      "frac_execution"; "frac_prepare"; "frac_commit"; "frac_remaster";
      "frac_scheduling"; "frac_replication"; "timeouts"; "retries"; "drops";
      "unavail_s"; "time_to_recover_s"; "goodput_under_fault";
      "offered_txn_s"; "goodput_txn_s"; "p99_us"; "sheds"; "breaker_rejects";
      "budget_denials"; "deadline_giveups"; "deadline_misses";
    ];
  Alcotest.(check int) "no rows for empty" 0 (List.length rows)

let test_result_rows_width () =
  let r =
    {
      Lion_harness.Runner.throughput = 1.0;
      goodput = 1.0;
      offered = 1.0;
      commits = 1;
      aborts = 0;
      p50 = 1.0;
      p75 = 1.0;
      p90 = 1.0;
      p95 = 1.0;
      p99 = 1.0;
      mean_latency = 1.0;
      single_node_ratio = 1.0;
      remaster_ratio = 0.0;
      throughput_series = [||];
      goodput_series = [||];
      bytes_series = [||];
      bytes_per_txn = 0.0;
      phase_fractions = [ (Lion_sim.Metrics.Execution, 1.0) ];
      remasters = 0;
      replica_adds = 0;
      counters =
        Lion_sim.Metrics.(snapshot (create (Lion_sim.Engine.create ())));
      availability = [||];
      unavail_seconds = 0.0;
      time_to_recover = infinity;
      goodput_under_fault = 0.0;
      engine_events = 0;
    }
  in
  let header, rows = Export.result_rows [ ("x", r) ] in
  match rows with
  | [ row ] ->
      Alcotest.(check int) "row width matches header" (List.length header)
        (List.length row);
      (* A run that ends degraded exports time_to_recover as "inf", not
         a float-formatted infinity. *)
      Alcotest.(check bool) "inf cell" true (List.mem "inf" row)
  | _ -> Alcotest.fail "expected one row"

let () =
  Alcotest.run "lion_harness"
    [
      ( "workloads",
        [
          Alcotest.test_case "ycsb parametrised" `Quick test_ycsb_builder_parametrised;
          Alcotest.test_case "ycsb one generator" `Quick test_ycsb_builder_reuses_generator;
          Alcotest.test_case "tpcc builder" `Quick test_tpcc_builder;
          Alcotest.test_case "dynamic respects time" `Quick test_dynamic_builder_respects_time;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
          Alcotest.test_case "series shape" `Quick test_series_csv_shape;
          Alcotest.test_case "result rows" `Quick test_result_rows_header_matches_rows;
          Alcotest.test_case "result row width" `Quick test_result_rows_width;
        ] );
    ]
