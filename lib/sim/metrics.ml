module Stats = Lion_kernel.Stats
module Timeseries = Lion_kernel.Timeseries
module Rng = Lion_kernel.Rng

type phase = Execution | Prepare | Commit | Remaster | Scheduling | Replication

let phase_name = function
  | Execution -> "execution"
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Remaster -> "remaster"
  | Scheduling -> "scheduling"
  | Replication -> "replication"

let all_phases = [ Execution; Prepare; Commit; Remaster; Scheduling; Replication ]

let phase_index = function
  | Execution -> 0
  | Prepare -> 1
  | Commit -> 2
  | Remaster -> 3
  | Scheduling -> 4
  | Replication -> 5

type counter =
  | Aborts
  | Timeouts
  | Retries
  | Drops
  | Sheds
  | Breaker_rejects
  | Breaker_opens
  | Breaker_half_opens
  | Budget_denials
  | Deadline_giveups
  | Deadline_misses
  | Stale_acks
  | Replica_purges
  | Remaster_begins
  | Wan_messages
  | Wan_bytes
  | Lan_messages
  | Lan_bytes

let all_counters =
  [
    Aborts; Timeouts; Retries; Drops; Sheds; Breaker_rejects; Breaker_opens;
    Breaker_half_opens; Budget_denials; Deadline_giveups; Deadline_misses;
    Stale_acks; Replica_purges; Remaster_begins; Wan_messages; Wan_bytes;
    Lan_messages; Lan_bytes;
  ]

let n_counters = List.length all_counters

(* Slot in [t.counts]: declaration order, the order of [all_counters]. *)
let counter_index = function
  | Aborts -> 0
  | Timeouts -> 1
  | Retries -> 2
  | Drops -> 3
  | Sheds -> 4
  | Breaker_rejects -> 5
  | Breaker_opens -> 6
  | Breaker_half_opens -> 7
  | Budget_denials -> 8
  | Deadline_giveups -> 9
  | Deadline_misses -> 10
  | Stale_acks -> 11
  | Replica_purges -> 12
  | Remaster_begins -> 13
  | Wan_messages -> 14
  | Wan_bytes -> 15
  | Lan_messages -> 16
  | Lan_bytes -> 17

let counter_name = function
  | Aborts -> "aborts"
  | Timeouts -> "timeouts"
  | Retries -> "retries"
  | Drops -> "drops"
  | Sheds -> "sheds"
  | Breaker_rejects -> "breaker-rejects"
  | Breaker_opens -> "breaker-opens"
  | Breaker_half_opens -> "breaker-half-opens"
  | Budget_denials -> "budget-denials"
  | Deadline_giveups -> "deadline-giveups"
  | Deadline_misses -> "deadline-misses"
  | Stale_acks -> "stale-acks"
  | Replica_purges -> "replica-purges"
  | Remaster_begins -> "remasters"
  | Wan_messages -> "wan-messages"
  | Wan_bytes -> "wan-bytes"
  | Lan_messages -> "lan-messages"
  | Lan_bytes -> "lan-bytes"

type t = {
  engine : Engine.t;
  mutable commits : int;
  mutable single_node : int;
  mutable remastered : int;
  latency : Stats.Reservoir.t;
  phase_time : float array;
  mutable total_latency : float;
  series : Timeseries.t;
  good_series : Timeseries.t;
  counts : int array;  (* indexed by [counter_index] *)
  (* Code-path beacons: named control-flow waypoints (elections,
     purges, cancelled remasters, anti-entropy rounds …) recorded as
     bare counters. Pure bookkeeping — no engine events, no RNG — so
     lighting one up never perturbs a run; the fault-schedule fuzzer
     uses the set of lit beacons as its coverage signal
     (docs/FUZZING.md). *)
  beacons : (string, int) Hashtbl.t;
  avail_series : Timeseries.t;
}

let create ?(seed = 42) engine =
  {
    engine;
    commits = 0;
    single_node = 0;
    remastered = 0;
    latency = Stats.Reservoir.create (Rng.create seed);
    phase_time = Array.make 6 0.0;
    total_latency = 0.0;
    series = Timeseries.create ~interval:(Engine.seconds 1.0);
    good_series = Timeseries.create ~interval:(Engine.seconds 1.0);
    counts = Array.make n_counters 0;
    beacons = Hashtbl.create 32;
    avail_series = Timeseries.create ~interval:(Engine.seconds 1.0);
  }

(* Recursive rather than [List.iter f]: the commit path runs once per
   transaction, and the iterator closure capturing [t] was a per-commit
   allocation for nothing. *)
let rec add_phases t = function
  | [] -> ()
  | (p, d) :: rest ->
      t.phase_time.(phase_index p) <- t.phase_time.(phase_index p) +. d;
      add_phases t rest

let record_commit ?(late = false) t ~latency ~single_node ~remastered ~phases =
  t.commits <- t.commits + 1;
  if single_node then t.single_node <- t.single_node + 1;
  if remastered then t.remastered <- t.remastered + 1;
  Stats.Reservoir.add t.latency latency;
  t.total_latency <- t.total_latency +. latency;
  add_phases t phases;
  Timeseries.incr t.series ~time:(Engine.now t.engine);
  if not late then Timeseries.incr t.good_series ~time:(Engine.now t.engine)

let incr t c =
  let i = counter_index c in
  t.counts.(i) <- t.counts.(i) + 1

let add t c n =
  let i = counter_index c in
  t.counts.(i) <- t.counts.(i) + n

let get t c = t.counts.(counter_index c)

type snapshot = int array

let snapshot t = Array.copy t.counts
let read s c = s.(counter_index c)

let beacon t name =
  match Hashtbl.find_opt t.beacons name with
  | Some n -> Hashtbl.replace t.beacons name (n + 1)
  | None -> Hashtbl.replace t.beacons name 1

let beacons t =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.beacons []
  |> List.sort compare

(* Past-dated schedules the engine clamped to [now]: each one is a
   scheduling bug somewhere upstream (a negative delay, an absolute
   time computed from a stale clock). Surfaced here so experiment
   summaries and tests can assert the count stays where they expect it
   instead of the clamp silently rewriting history. *)
let schedule_clamps t = Engine.clamped_schedules t.engine

let note_availability t ~frac =
  Timeseries.add t.avail_series ~time:(Engine.now t.engine) frac

let availability_series t = Timeseries.to_array t.avail_series
let commits t = t.commits
let single_node_commits t = t.single_node
let remastered_commits t = t.remastered

let throughput t ~duration =
  if duration <= 0.0 then 0.0 else float_of_int t.commits /. (duration /. 1e6)

let throughput_series t = Timeseries.to_array t.series
let goodput_series t = Timeseries.to_array t.good_series
(* An empty window — e.g. right after [reset_window], before any commit
   lands — must read as 0, never NaN or an out-of-bounds access,
   whatever the reservoir's internals do. *)
let latency_percentile t p =
  if Stats.Reservoir.count t.latency = 0 then 0.0
  else Stats.Reservoir.percentile t.latency p

let mean_latency t =
  if Stats.Reservoir.count t.latency = 0 then 0.0
  else Stats.Reservoir.mean t.latency

let phase_fraction t phase =
  let total = Array.fold_left ( +. ) 0.0 t.phase_time in
  if total <= 0.0 then 0.0 else t.phase_time.(phase_index phase) /. total

let reset_window t =
  t.commits <- 0;
  t.single_node <- 0;
  t.remastered <- 0;
  t.total_latency <- 0.0;
  Array.fill t.counts 0 n_counters 0;
  Hashtbl.reset t.beacons;
  Array.fill t.phase_time 0 6 0.0;
  Stats.Reservoir.reset t.latency
