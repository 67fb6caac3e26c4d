(* Host-speed reference for calibrating wall-time metrics.

   The benchmark runs on shared hosts whose speed changes for minutes
   at a time: on a 2-vCPU cloud VM the same simulator process ran at
   half speed for minutes and at full speed for minutes after, with
   CPU time rising as much as wall time, so a longer run does not
   average the slow stretches away. run.py times this fixed piece of
   work in a process of its own before the first repetition and after
   each one, and divides each repetition's wall times by the mean of
   the two probes around it over [nominal_s]. Calibrated wall times are
   thus those of a host on which this probe takes [nominal_s].

   The work uses the standard library only, so no change to the
   simulator can move it. It is shaped like the simulator's hot paths:
   a hash table of a quarter of a million boxed values, grown from
   empty, then random lookups, updates and inserts. See README.md for
   how well it tracks each workload. *)

let nominal_s = 0.6

let lcg = ref 12345

let next () =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3fffffff;
  !lcg

(* Wall seconds for one pass of the fixed work. *)
let run () =
  Gc.full_major ();
  let n = 1 lsl 18 in
  let t0 = Unix.gettimeofday () in
  let tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl (next ()) (ref i)
  done;
  for _ = 1 to 600_000 do
    let k = next () in
    match Hashtbl.find_opt tbl k with Some r -> incr r | None -> Hashtbl.replace tbl k (ref 0)
  done;
  ignore (Sys.opaque_identity tbl);
  Unix.gettimeofday () -. t0
