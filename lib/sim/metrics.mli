(** Experiment metrics: commits, counters, latency, phase breakdown.

    One recorder per experiment run. Commit events also record whether
    the transaction ran as a single-node transaction, whether it used
    remastering, and how its latency divides into phases — everything
    Figs. 8, 10, 12 and 14 need.

    Event counters (aborts, timeouts, breaker trips …) live in one
    registry keyed by the closed type {!counter}. Adding a counter is
    one constructor (also listed in {!all_counters}) plus one name in
    {!counter_name}: [reset_window], {!snapshot} and the fuzzer's
    coverage signature pick it up from there. *)

type phase =
  | Execution  (** read/write processing, incl. remote reads *)
  | Prepare  (** 2PC prepare round *)
  | Commit  (** commit round / group-commit wait *)
  | Remaster  (** waiting on leader transfers *)
  | Scheduling  (** deterministic lock-manager / sequencer wait *)
  | Replication  (** replica synchronisation *)

val phase_name : phase -> string
val all_phases : phase list

type t

val create : ?seed:int -> Engine.t -> t

val record_commit :
  ?late:bool ->
  t ->
  latency:float ->
  single_node:bool ->
  remastered:bool ->
  phases:(phase * float) list ->
  unit
(** Record a committed transaction. [latency] in µs from first submit
    (including retries) to commit. [late] (default false) marks a
    commit that landed past its client deadline: it still counts in
    throughput and the latency distribution but is excluded from the
    goodput series. *)

type counter =
  | Aborts
      (** One abort-and-retry occurrence (the eventual commit is still
          recorded via [record_commit]). *)
  | Timeouts
      (** An RPC (or partition wait) gave up after exhausting its
          retries. *)
  | Retries  (** An RPC attempt timed out and was retried with backoff. *)
  | Drops
      (** The fault layer killed a message (drop spec, partition, or dead
          endpoint). *)
  | Sheds
      (** Admission control turned a request away (bounded queue
          overflow, CoDel delay bound, or a dead node's drained queue). *)
  | Breaker_rejects
      (** A per-destination circuit breaker refused an RPC while open. *)
  | Breaker_opens  (** A circuit breaker tripped open. *)
  | Breaker_half_opens
      (** An open breaker's cooldown elapsed and it moved to
          [Half_open], admitting one probe. A breaker pinned open by a
          persistent fault shows opens and half-opens climbing in
          lockstep. *)
  | Budget_denials
      (** A retransmission was abandoned because the retry budget was
          dry. *)
  | Deadline_giveups
      (** A transaction past its deadline was shed instead of retried. *)
  | Deadline_misses
      (** A transaction committed, but only after its deadline — counted
          out of goodput. *)
  | Stale_acks
      (** A replication/remaster stream message from a stale session —
          initiated before its destination left and rejoined the
          membership — was rejected instead of applied
          (docs/MEMBERSHIP.md). Only counted while
          [Config.session_tagging] is on. *)
  | Replica_purges
      (** A rejoining node held a secondary whose partition was
          remastered away while it was down; the stale copy was purged
          at recovery. *)
  | Remaster_begins
      (** A leader transfer was admitted (cooldown passed, no transfer
          in flight for the partition). *)
  | Wan_messages
      (** Cross-region (WAN) messages sent. The four link counters are
          only bumped by [Network.send] when a region topology is
          installed — region-free runs leave them at 0 (docs/GEO.md). *)
  | Wan_bytes  (** Bytes carried by cross-region messages. *)
  | Lan_messages
      (** Intra-region (LAN) messages sent under a region topology. *)
  | Lan_bytes  (** Bytes carried by intra-region messages. *)
(** The window counters: totals since [create] or the last
    [reset_window]. *)

val all_counters : counter list
(** Every counter, in declaration order. *)

val counter_name : counter -> string
(** Stable kebab-case name, e.g. ["breaker-rejects"]; the fuzzer's
    coverage signature spells counters this way ([m:] entries). *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val get : t -> counter -> int

type snapshot
(** A frozen copy of every counter, taken at the end of a run. *)

val snapshot : t -> snapshot
val read : snapshot -> counter -> int

val beacon : t -> string -> unit
(** Light a named code-path beacon — a control-flow waypoint such as an
    election, a phantom purge or a cancelled remaster. Beacons are pure
    bookkeeping (no engine events, no RNG), so recording one never
    perturbs a run; the fault-schedule fuzzer uses the set of lit
    beacons as its coverage signal. *)

val beacons : t -> (string * int) list
(** All beacons lit since [create] (or the last [reset_window]),
    sorted by name for deterministic output. *)

val schedule_clamps : t -> int
(** Past-dated schedules the engine clamped to [now] since [create] —
    each one is a scheduling bug somewhere upstream (negative delay, or
    an absolute time computed from a stale clock). Surfaced so
    experiment summaries and tests can assert the count. *)

val note_availability : t -> frac:float -> unit
(** Record a point-in-time availability sample (0..1) into the
    per-second series — the runner samples once per simulated second. *)

val availability_series : t -> float array
(** Availability samples bucketed per simulated second. *)

val commits : t -> int
val single_node_commits : t -> int
val remastered_commits : t -> int

val throughput : t -> duration:float -> float
(** Committed txns per simulated second over [duration] µs. *)

val throughput_series : t -> float array
(** Commits bucketed per simulated second. *)

val goodput_series : t -> float array
(** In-deadline commits bucketed per simulated second — equals
    [throughput_series] while no transaction deadline is configured. *)

val latency_percentile : t -> float -> float
val mean_latency : t -> float

val phase_fraction : t -> phase -> float
(** Fraction of total committed-transaction time spent in a phase. *)

val reset_window : t -> unit
(** Clear counters, beacons and latency (not the per-second series) so
    a run can exclude its warm-up from reported numbers. *)
