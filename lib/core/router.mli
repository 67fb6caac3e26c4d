(** Lion's transaction router (§III).

    Each router instance carries the same cost model as the planner and
    dispatches a transaction to the node where the execution cost is
    lowest — the node with the most requisite replicas: all primaries
    beats all-replicas-some-secondary (remaster cost) beats missing
    replicas (2PC cost). Cost ties break on a hash of the transaction's
    partition set, never on load: the same partitions always route to
    the same node (no remaster ping-pong between tied nodes), while
    distinct partition sets spread across their tied candidates.

    A route evaluates each live node's cost once and allocates nothing
    beyond the cost model's own frequency lookups. *)

type t

val create : Lion_store.Cluster.t -> Lion_analysis.Costmodel.t -> t

val route : t -> Lion_workload.Txn.t -> int
(** The lowest-cost live node for the transaction. Raises
    [Invalid_argument] when no node is live. *)

val cost_model : t -> Lion_analysis.Costmodel.t
