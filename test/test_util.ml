(* Helpers shared by the test suites. *)

module Engine = Lion_sim.Engine

(* Drain [engine] to quiescence under a 200,000-event budget and fail
   the test if the budget ran out: a runaway background loop becomes a
   named failure instead of a slow pass (or a pass after a stderr
   warning). Every healthy drain in the suites stays far below it. *)
let drain engine =
  Engine.run_all engine ~max_events:200_000 ();
  if Engine.last_run_exhausted engine then
    Alcotest.failf "drain exhausted its 200,000-event budget (%d events pending)"
      (Engine.pending engine)
