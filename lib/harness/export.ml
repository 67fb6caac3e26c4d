let escape cell =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') cell
  in
  if not needs_quoting then cell
  else (
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf)

let write_csv ~path ~header ~rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line cells = output_string oc (String.concat "," (List.map escape cells) ^ "\n") in
      line header;
      List.iter line rows)

let series_csv ~path series =
  let header = "second" :: List.map fst series in
  let len = List.fold_left (fun acc (_, a) -> Stdlib.max acc (Array.length a)) 0 series in
  let rows =
    List.init len (fun i ->
        string_of_int (i + 1)
        :: List.map
             (fun (_, a) ->
               if i < Array.length a then Printf.sprintf "%.1f" a.(i) else "")
             series)
  in
  write_csv ~path ~header ~rows

module Metrics = Lion_sim.Metrics

let counter_columns =
  List.map (fun c -> String.map (function '-' -> '_' | ch -> ch) (Metrics.counter_name c))

let counter_cells r =
  List.map (fun c -> string_of_int (Metrics.read r.Runner.counters c))

let overload_counters =
  Metrics.
    [
      Sheds; Breaker_rejects; Breaker_opens; Budget_denials; Deadline_giveups;
      Deadline_misses;
    ]

let result_rows results =
  let header =
    [
      "label"; "throughput_txn_s"; "commits"; "aborts"; "p50_us"; "p75_us"; "p90_us";
      "p95_us"; "mean_latency_us"; "single_node_ratio"; "remaster_ratio"; "bytes_per_txn";
      "remasters"; "replica_adds";
    ]
    @ List.map
        (fun p -> "frac_" ^ Metrics.phase_name p)
        Metrics.all_phases
    @ counter_columns Metrics.[ Timeouts; Retries; Drops ]
    @ [
        "unavail_s"; "time_to_recover_s"; "goodput_under_fault"; "offered_txn_s";
        "goodput_txn_s"; "p99_us";
      ]
    @ counter_columns overload_counters
  in
  let row (label, (r : Runner.result)) =
    [
      label;
      Printf.sprintf "%.1f" r.Runner.throughput;
      string_of_int r.Runner.commits;
      string_of_int r.Runner.aborts;
      Printf.sprintf "%.1f" r.Runner.p50;
      Printf.sprintf "%.1f" r.Runner.p75;
      Printf.sprintf "%.1f" r.Runner.p90;
      Printf.sprintf "%.1f" r.Runner.p95;
      Printf.sprintf "%.1f" r.Runner.mean_latency;
      Printf.sprintf "%.4f" r.Runner.single_node_ratio;
      Printf.sprintf "%.4f" r.Runner.remaster_ratio;
      Printf.sprintf "%.1f" r.Runner.bytes_per_txn;
      string_of_int r.Runner.remasters;
      string_of_int r.Runner.replica_adds;
    ]
    @ List.map
        (fun p ->
          let f =
            try List.assoc p r.Runner.phase_fractions with Not_found -> 0.0
          in
          Printf.sprintf "%.4f" f)
        Metrics.all_phases
    @ counter_cells r Metrics.[ Timeouts; Retries; Drops ]
    @ [
        Printf.sprintf "%.1f" r.Runner.unavail_seconds;
        (if r.Runner.time_to_recover = infinity then "inf"
         else Printf.sprintf "%.1f" r.Runner.time_to_recover);
        Printf.sprintf "%.1f" r.Runner.goodput_under_fault;
        Printf.sprintf "%.1f" r.Runner.offered;
        Printf.sprintf "%.1f" r.Runner.goodput;
        Printf.sprintf "%.1f" r.Runner.p99;
      ]
    @ counter_cells r overload_counters
  in
  (header, List.map row results)

let result_csv ~path results =
  let header, rows = result_rows results in
  write_csv ~path ~header ~rows
