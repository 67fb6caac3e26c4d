(* BENCH_*.json emission and regression gating.

   The file schema ("lion-bench/1") is stable: every scenario row
   carries the same fields whether it is a micro or an end-to-end
   scenario, so files from different dates diff cleanly and external
   tooling can plot a trajectory without per-scenario cases.

   Gating against a committed baseline separates machine-independent
   metrics from wall-time ones:

   - minor-words/event is a property of the compiled program, not the
     machine: compared raw, > 30% growth fails.
   - the drain speedup (engine_drain vs engine_drain_seed events/sec,
     both measured in the same process) is a ratio of two runs on the
     same machine: compared raw against its floor (3x).
   - wall-time p50s are machine-dependent: the frozen seed engine never
     changes, so the ratio of its p50 between the current run and the
     baseline file estimates how much faster or slower this machine is
     than the one that wrote the baseline, and every other scenario's
     wall gate is calibrated by that factor before the 30% test.
     LION_PERF_NO_WALL_GATE=1 skips the wall gates entirely (for
     wildly throttled CI runners); the allocation and speedup gates
     still apply. *)

module Json = Lion_kernel.Json

let schema = "lion-bench/1"
let alloc_slack = 1.30
let wall_slack = 1.30
let drain_speedup_floor = 3.0

(* ---- emission ---------------------------------------------------- *)

let num f =
  (* %.17g round-trips any float; trim the common integral case. *)
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let scenario_json (r : Scenario.result) =
  Printf.sprintf
    {|    { "name": "%s",
      "descr": "%s",
      "samples": %d,
      "events_per_op": %d,
      "txns_per_op": %d,
      "p50_ns": %s,
      "p99_ns": %s,
      "minor_words_per_op": %s,
      "events_per_sec": %s,
      "txns_per_sec": %s,
      "minor_words_per_event": %s }|}
    (Json.escape r.Scenario.name) (Json.escape r.Scenario.descr)
    r.Scenario.samples r.Scenario.events_per_op r.Scenario.txns_per_op
    (num r.Scenario.p50_ns) (num r.Scenario.p99_ns)
    (num r.Scenario.minor_words_per_op)
    (num r.Scenario.events_per_sec)
    (num r.Scenario.txns_per_sec)
    (num r.Scenario.minor_words_per_event)

let write ~path ~date ~quick results =
  let oc = open_out path in
  Printf.fprintf oc
    "{ \"schema\": \"%s\",\n  \"date\": \"%s\",\n  \"quick\": %b,\n  \"scenarios\": [\n%s\n  ]\n}\n"
    schema (Json.escape date) quick
    (String.concat ",\n" (List.map scenario_json results));
  close_out oc

(* ---- loading a bench file back into Scenario.results ------------- *)

exception Parse_error of string

let scenario_of_json j : Scenario.result =
  let num name = Json.(to_float (member name j)) in
  let int name = Json.(to_int (member name j)) in
  let str name = Json.(to_string (member name j)) in
  {
    Scenario.name = str "name";
    descr = str "descr";
    samples = int "samples";
    events_per_op = int "events_per_op";
    txns_per_op = int "txns_per_op";
    p50_ns = num "p50_ns";
    p99_ns = num "p99_ns";
    minor_words_per_op = num "minor_words_per_op";
    events_per_sec = num "events_per_sec";
    txns_per_sec = num "txns_per_sec";
    minor_words_per_event = num "minor_words_per_event";
  }

let load path : Scenario.result list =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let rows j =
    if Json.(to_string (member "schema" j)) <> schema then
      raise (Json.Decode_error ("not a " ^ schema ^ " file"));
    List.map scenario_of_json Json.(to_list (member "scenarios" j))
  in
  match Json.decode text rows with
  | Ok rs -> rs
  | Error msg -> raise (Parse_error (path ^ ": " ^ msg))

(* ---- gating ------------------------------------------------------ *)

let find name rs = List.find_opt (fun r -> r.Scenario.name = name) rs

let drain_speedup rs =
  match (find "engine_drain" rs, find "engine_drain_seed" rs) with
  | Some d, Some s when s.Scenario.events_per_sec > 0.0 ->
      Some (d.Scenario.events_per_sec /. s.Scenario.events_per_sec)
  | _ -> None

(* Returns failure messages; empty list = all gates pass. Scenarios
   present on only one side are reported but do not fail the gate —
   adding a scenario must not require regenerating every baseline
   atomically (the baseline refresh lands in the same PR, but older
   BENCH_*.json files stay comparable). *)
let compare_against ~baseline ~current ~wall_gates =
  let failures = ref [] in
  let notes = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* machine-speed calibration from the frozen seed engine *)
  let calib =
    match (find "engine_drain_seed" baseline, find "engine_drain_seed" current) with
    | Some b, Some c when b.Scenario.p50_ns > 0.0 ->
        let f = c.Scenario.p50_ns /. b.Scenario.p50_ns in
        note "machine-speed calibration (seed engine p50 ratio): %.2fx" f;
        f
    | _ ->
        note "no seed-engine probe on both sides; wall gates uncalibrated";
        1.0
  in
  List.iter
    (fun (b : Scenario.result) ->
      match find b.Scenario.name current with
      | None -> note "scenario %s in baseline but not in current run" b.Scenario.name
      | Some c ->
          if b.Scenario.events_per_op > 0 && b.Scenario.minor_words_per_event > 0.0
          then (
            let limit = (b.Scenario.minor_words_per_event *. alloc_slack) +. 0.5 in
            if c.Scenario.minor_words_per_event > limit then
              fail
                "%s: minor-words/event %.2f exceeds baseline %.2f (+30%% slack)"
                c.Scenario.name c.Scenario.minor_words_per_event
                b.Scenario.minor_words_per_event);
          if wall_gates && b.Scenario.p50_ns > 0.0 then (
            let limit = b.Scenario.p50_ns *. calib *. wall_slack in
            if c.Scenario.p50_ns > limit then
              fail
                "%s: p50 %.0f ns/op exceeds calibrated baseline %.0f ns/op (+30%% slack)"
                c.Scenario.name c.Scenario.p50_ns (b.Scenario.p50_ns *. calib)))
    baseline;
  (match drain_speedup current with
  | Some s ->
      note "engine drain speedup vs frozen seed engine: %.2fx" s;
      if s < drain_speedup_floor then
        fail "engine_drain speedup %.2fx below required %.1fx" s
          drain_speedup_floor
  | None -> fail "cannot compute drain speedup: engine_drain(_seed) missing");
  (List.rev !notes, List.rev !failures)
