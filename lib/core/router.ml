module Cluster = Lion_store.Cluster
module Placement = Lion_store.Placement
module Costmodel = Lion_analysis.Costmodel
module Txn = Lion_workload.Txn

(* [costs] holds the last route's per-node cost (live nodes only), so a
   route evaluates each node's cost once and allocates nothing. *)
type t = { cl : Cluster.t; cost : Costmodel.t; costs : float array }

let create cl cost =
  { cl; cost; costs = Array.make (Placement.nodes cl.Cluster.placement) 0.0 }

(* Cost ties break on a deterministic hash of the partition set, never
   on instantaneous load: transactions accessing the same partitions
   must route to the same node or remastering ping-pongs between the
   tied nodes (§III), while distinct partition sets still spread across
   their tied candidates instead of piling onto one node id. The pick
   is the [hash mod n_tied]-th tied node in ascending id order. *)
let route t (txn : Txn.t) =
  let placement = t.cl.Cluster.placement in
  let parts = txn.Txn.parts in
  let costs = t.costs in
  let nodes = Array.length costs in
  let best_cost = ref infinity in
  for node = 0 to nodes - 1 do
    if Cluster.alive t.cl node then (
      let c = Costmodel.txn_route_cost t.cost placement ~parts ~node in
      costs.(node) <- c;
      if c < !best_cost then best_cost := c)
  done;
  let bound = !best_cost +. 1e-9 in
  let n_tied = ref 0 in
  for node = 0 to nodes - 1 do
    if Cluster.alive t.cl node && costs.(node) <= bound then incr n_tied
  done;
  if !n_tied = 0 then invalid_arg "Router.route: no live node";
  let k = ref (if !n_tied = 1 then 0 else Hashtbl.hash parts mod !n_tied) in
  let node = ref (-1) in
  while !k >= 0 do
    incr node;
    if Cluster.alive t.cl !node && costs.(!node) <= bound then decr k
  done;
  !node

let cost_model t = t.cost
