(** System-wide cost and sizing parameters for the simulated database.

    Defaults follow the paper's testbed (§VI-A): 8 worker threads per
    executor node, 2 initial replicas per partition, a maximum of 4,
    remaster delay 3000 µs, ~1 GbE network. All costs are in simulated
    microseconds, all sizes in bytes. *)

type t = {
  nodes : int;  (** executor node count (paper default 4) *)
  partitions_per_node : int;  (** initial partitions hosted per node *)
  workers_per_node : int;  (** worker threads per node (paper: 8) *)
  replicas : int;  (** initial replicas per partition (paper: 2) *)
  max_replicas : int;  (** replica cap per partition (paper: 4) *)
  txn_setup_cost : float;  (** per-transaction CPU µs at the coordinator (parsing, context) *)
  local_op_cost : float;  (** CPU µs to execute one local read/write *)
  msg_handle_cost : float;  (** CPU µs consumed at a message receiver *)
  net_latency : float;  (** one-way network latency, µs *)
  net_per_byte : float;  (** µs per byte on the wire *)
  op_msg_bytes : int;  (** request/response size for one operation *)
  record_bytes : int;  (** payload of one data record *)
  remaster_delay : float;
      (** leader-transfer duration, µs. Default 300 (log tail sync +
          leader handover on a LAN); §VI-C1 experiments explicitly set
          the paper's stress value of 3000 *)
  remaster_cooldown : float;
      (** minimum µs between two remasters of the same partition —
          damps ping-pong; transactions losing the race fall back to 2PC *)
  partition_bytes : int;  (** bytes copied when adding a replica *)
  migration_cpu_cost : float;
      (** worker CPU µs consumed on {e each} of the source and
          destination nodes per replica addition — the interference that
          makes migration-heavy strategies pay (§II-B) *)
  replica_add_duration : float;  (** background copy duration, µs *)
  election_delay : float;
      (** leader-election span after a node failure before an affected
          partition's surviving secondary is promoted, µs *)
  replication_factor_sync : bool;
      (** if true, commit waits for replication (no group commit) *)
  group_commit_interval : float;  (** epoch length for group commit, µs *)
  batch_size : int;  (** batch execution epoch size (paper: 10k) *)
  rpc_timeout : float;
      (** µs a sender waits for an RPC reply before declaring the
          attempt lost (see docs/FAULTS.md) *)
  rpc_retries : int;
      (** bounded retransmissions after the first attempt; once
          exhausted the caller's [on_fail] fires *)
  rpc_backoff : float;
      (** base µs of the exponential backoff between RPC retries
          (doubles per attempt) *)
  fault_plan : Lion_sim.Fault.plan;
      (** scheduled crashes / partitions / drop / jitter / stragglers
          injected into this cluster (default: none) *)
  queue_cap : int;
      (** bound on each node's worker/service wait queue; 0 (default)
          = unbounded, admission control off (docs/OVERLOAD.md) *)
  shed_policy : Lion_sim.Server.shed_policy;
      (** who is turned away when a bounded queue saturates (default
          [Reject_newest]; irrelevant while [queue_cap] = 0) *)
  control_priority : bool;
      (** if true, remaster/replication control work runs at
          [Server.High] priority, ahead of user transactions and exempt
          from shedding (default false) *)
  retry_budget_rate : float;
      (** global retry-budget refill, tokens per simulated second; each
          RPC/log-ship retransmission takes one token. 0 (default) =
          unlimited retries, as before *)
  retry_budget_burst : float;  (** retry-budget bucket capacity *)
  breaker_threshold : int;
      (** consecutive terminal RPC failures to one destination that
          trip its circuit breaker; 0 (default) = breakers off *)
  breaker_cooldown : float;
      (** µs a tripped breaker stays open before half-open probing *)
  txn_deadline : float;
      (** client patience, µs from first submission: a commit landing
          later counts as a deadline miss (discounted from goodput);
          0 (default) = no deadline, goodput = throughput *)
  deadline_enforce : bool;
      (** if true (default), a transaction past [txn_deadline] is also
          {e shed} — aborted attempts stop retrying and in-flight RPCs
          stop retransmitting. false keeps the deadline as a pure
          measurement SLO: late commits are counted but the system
          still burns capacity completing them — the configuration the
          metastable-failure repro uses as its unprotected baseline
          (docs/OVERLOAD.md). Irrelevant while [txn_deadline] = 0 *)
  standby_nodes : int;
      (** pre-provisioned node slots beyond [nodes] that start outside
          the membership; [Cluster.join_node] activates them. 0
          (default) freezes the membership at [nodes], exactly the
          pre-elastic behaviour (docs/MEMBERSHIP.md) *)
  rebalance_rate : float;
      (** background migration-step rate (partitions per simulated
          second) for elastic rebalancing: join catch-up, decommission
          draining and under-replication repair. 0 (default) = elastic
          rebalancing off; joins and decommissions then only change the
          membership, never move data *)
  session_tagging : bool;
      (** if true, every replication / remaster stream carries a
          session id ([Replication.session]) and deliveries from a
          session opened before the destination left and rejoined the
          membership are rejected (counted as
          [Metrics.Stale_acks]). false (default) reproduces
          the classic stale-replication-ack hazard — see
          docs/MEMBERSHIP.md for the openraft/Ra comparison *)
  reintroduce_phantom_secondary : bool;
      (** compat flag re-planting the phantom-secondary bug the
          divergence auditor originally caught: when true, a dead
          primary demoted in place by a planner remaster (racing the
          election timer) is {e not} purged — neither by the election
          callback nor at rejoin — so the recovered node serves a
          frozen copy. Exists purely as a known-bug target for the
          fault-schedule fuzzer (docs/FUZZING.md); false (default)
          keeps both purge sites active *)
  regions : int;
      (** number of geographic regions the node slots divide into
          (contiguous blocks of node ids — see [region_of_node]).
          0 (default) = region-free: the network has a single latency
          class and every geo knob below is inert (docs/GEO.md) *)
  wan_latency : float;
      (** one-way µs for a message between nodes of different regions
          (default 50 ms); irrelevant while [regions] < 2 *)
  wan_per_byte : float;
      (** µs per byte on a cross-region link (default 0.05 ≈
          160 Mbit/s); irrelevant while [regions] < 2 *)
  min_regions : int;
      (** minimum distinct regions each partition's replica set
          (primary + secondaries) must span. The placement is spread at
          cluster creation and the rebalancer keeps the invariant when
          installing or evicting secondaries. 0 (default) = no
          constraint *)
  epoch_interval : float;
      (** epoch length, µs, for the epoch-based OCC protocol
          ([Lion_protocols.Epoch]): optimistic execution parks until
          the next boundary, where validation and one cross-region
          replication round happen for the whole epoch *)
}

val default : t
(** The paper's default configuration: 4 nodes, 8 workers, 2 replicas,
    max 4, remaster 3000 µs. *)

val total_partitions : t -> int
val total_workers : t -> int

val total_slots : t -> int
(** [nodes + standby_nodes]: the size of every per-node structure in an
    elastic cluster. Equals [nodes] with the default configuration. *)

val with_nodes : t -> int -> t
(** Scale the cluster size keeping per-node density fixed (Fig. 11). *)

val with_elastic_defaults : t -> t
(** Turn elastic membership on at its documented starting point: two
    standby slots, a 50 migrations/s rebalance bound and session-tagged
    replication streams. See docs/MEMBERSHIP.md. *)

val with_overload_defaults : t -> t
(** Turn every overload-robustness knob on at its documented starting
    point: bounded queues (cap 64, reject-newest), control-traffic
    priority, a 2000 tokens/s retry budget, breakers (threshold 8,
    cooldown 50 ms) and a 200 ms transaction deadline. See
    docs/OVERLOAD.md. *)

val with_geo_defaults : t -> t
(** Turn geo-replication on at its documented starting point: two
    regions, [min_regions] = 2, and the default WAN link class (50 ms
    one-way, 0.05 µs/byte). See docs/GEO.md. *)

val region_of_node : t -> int -> int
(** Region of a node slot under the contiguous block layout: the
    [total_slots] ids divide into [regions] consecutive blocks (nodes
    0..k-1 form region 0, and so on). Always 0 while [regions] < 2. *)
