module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Kvstore = Lion_store.Kvstore
module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Metrics = Lion_sim.Metrics
module Txn = Lion_workload.Txn
module Trace = Lion_trace.Trace
module History = Lion_store.History

type verdict = { committed : bool; single_node : bool; remastered : bool }

type epoch_result = {
  verdicts : verdict array;
  node_busy : float array;
  serial_time : float;
  barrier_time : float;
  phase_split : (Metrics.phase * float) list;
}

let conflict_verdicts ?(include_raw = false) ?window ?footprint ~granule txns =
  let window = match window with Some w -> Stdlib.max 1 w | None -> Array.length txns in
  let footprint =
    match footprint with
    | Some f -> f
    | None -> fun txn -> (Txn.write_keys txn, Txn.read_keys txn)
  in
  let reserved = Hashtbl.create 1024 in
  let ok = Array.make (Array.length txns) true in
  Array.iteri
    (fun i txn ->
      if i mod window = 0 then Hashtbl.reset reserved;
      let write_keys, read_keys = footprint txn in
      let writes = List.map granule write_keys in
      let reads = List.map granule read_keys in
      let conflict g =
        match Hashtbl.find_opt reserved g with Some j -> j < i | None -> false
      in
      let doomed =
        List.exists conflict writes || (include_raw && List.exists conflict reads)
      in
      if doomed then ok.(i) <- false
      else
        List.iter
          (fun g -> if not (Hashtbl.mem reserved g) then Hashtbl.add reserved g i)
          writes)
    txns;
  ok

type request = {
  txn : Txn.t;
  enqueued : float;
  mutable retries : int;
  on_done : unit -> unit;
  ctx : Trace.ctx option;  (* root trace context, None when untraced *)
  mutable wait_from : float;
      (* when this request last started waiting (enqueue or re-queue);
         the next epoch's queue-wait span starts here *)
}

type state = {
  cl : Cluster.t;
  process : Txn.t array -> epoch_result;
  max_retries : int;
  buffer : request Queue.t;
  carryover : request Queue.t;  (* aborted transactions, retried first *)
  mutable running : bool;
  stage_labels : string * string;
      (* protocol-specific names for the sequencing and barrier stage
         spans of traced transactions *)
}

(* Epoch commit barrier: the nodes agree to commit the epoch — a couple
   of cross-node round trips regardless of batch size. *)
let epoch_commit_cost cl = 4.0 *. Network.oneway_delay cl.Cluster.network ~bytes:64

(* Epoch processing is analytic, so a traced transaction's spans are
   reconstructed retroactively at epoch end from the makespan's stage
   boundaries. The stages tile [wait_from, now] exactly, so the
   critical path of a batch trace sums to its recorded latency. *)
let emit_stages st req ~t0 ~t1 ~t2 ~t3 ~now =
  match req.ctx with
  | None -> ()
  | Some _ as ctx ->
      let seq_label, barrier_label = st.stage_labels in
      let stage name phase a b =
        if b > a then
          Trace.finish ~ts:b (Trace.child ~phase ~name ~ts:a ctx)
      in
      stage "queue-wait" "scheduling" req.wait_from t0;
      stage seq_label "scheduling" t0 t1;
      stage "execution" "execution" t1 t2;
      stage barrier_label "remaster" t2 t3;
      stage "epoch-commit" "commit" t3 now

(* Consistency-audit hook. Epoch engines are analytic — they never
   touch the real [Kvstore] — so history events are synthesized against
   the sink's private shadow store, in epoch commit order (the array
   order the deterministic conflict pass already fixed): a committed
   transaction reads the current shadow versions, installs its writes
   (bumping them), and records the installed versions; an aborted
   attempt records only its observed reads. With no sink this is one
   match per epoch. *)
let record_history st ~now req (v : verdict) =
  match st.cl.Cluster.history with
  | None -> ()
  | Some h ->
      let shadow = History.shadow h in
      let reads =
        List.map (fun op ->
            let k = Txn.key_of op in
            (k, Kvstore.version shadow k))
          req.txn.Txn.ops
      in
      let writes =
        if v.committed then (
          let wkeys = List.sort_uniq Kvstore.key_compare (Txn.write_keys req.txn) in
          let s = Kvstore.begin_session shadow in
          List.iter (Kvstore.write s) wkeys;
          Kvstore.commit_session s;
          List.map (fun k -> (k, Kvstore.version shadow k)) wkeys)
        else []
      in
      History.record h ~txn_id:req.txn.Txn.id ~attempt:(req.retries + 1) ~reads
        ~writes
        ~outcome:(if v.committed then History.Committed else History.Aborted)
        ~ts:now

let scale_phases phase_split latency =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 phase_split in
  if total <= 0.0 then [ (Metrics.Execution, latency) ]
  else List.map (fun (p, w) -> (p, latency *. w /. total)) phase_split

let rec start_epoch st =
  let cfg = st.cl.Cluster.cfg in
  let batch_size = cfg.Config.batch_size in
  let take () =
    let out = ref [] in
    let n = ref 0 in
    while !n < batch_size && not (Queue.is_empty st.carryover) do
      out := Queue.pop st.carryover :: !out;
      incr n
    done;
    while !n < batch_size && not (Queue.is_empty st.buffer) do
      out := Queue.pop st.buffer :: !out;
      incr n
    done;
    Array.of_list (List.rev !out)
  in
  let requests = take () in
  if Array.length requests = 0 then st.running <- false
  else (
    st.running <- true;
    let txns = Array.map (fun r -> r.txn) requests in
    let result = st.process txns in
    assert (Array.length result.verdicts = Array.length txns);
    let workers = float_of_int cfg.Config.workers_per_node in
    let exec_time =
      Array.fold_left (fun acc busy -> Stdlib.max acc (busy /. workers)) 0.0 result.node_busy
    in
    let epoch_start = Engine.now st.cl.Cluster.engine in
    let duration =
      result.serial_time +. exec_time +. result.barrier_time +. epoch_commit_cost st.cl
    in
    Engine.schedule st.cl.Cluster.engine ~delay:duration (fun () ->
        let now = Engine.now st.cl.Cluster.engine in
        let t0 = epoch_start in
        let t1 = t0 +. result.serial_time in
        let t2 = t1 +. exec_time in
        let t3 = t2 +. result.barrier_time in
        Array.iteri
          (fun i req ->
            let v = result.verdicts.(i) in
            let give_up = req.retries >= st.max_retries in
            record_history st ~now req v;
            if v.committed || give_up then (
              let latency = now -. req.enqueued in
              (* Batch engines never enforce deadlines (retries are
                 already bounded by [max_retries]) but the goodput
                 accounting matches the standard path: a commit past
                 the client's patience counts out of goodput. *)
              let late =
                cfg.Config.txn_deadline > 0.0
                && latency > cfg.Config.txn_deadline
              in
              if late then Metrics.incr st.cl.Cluster.metrics Deadline_misses;
              Metrics.record_commit ~late st.cl.Cluster.metrics ~latency
                ~single_node:v.single_node ~remastered:v.remastered
                ~phases:(scale_phases result.phase_split latency);
              emit_stages st req ~t0 ~t1 ~t2 ~t3 ~now;
              Trace.finish_txn ~ts:now ~ok:v.committed req.ctx;
              req.on_done ())
            else (
              Metrics.incr st.cl.Cluster.metrics Aborts;
              emit_stages st req ~t0 ~t1 ~t2 ~t3 ~now;
              Trace.note_abort ~ts:now req.ctx;
              req.wait_from <- now;
              req.retries <- req.retries + 1;
              Queue.push req st.carryover))
          requests;
        if Queue.is_empty st.buffer && Queue.is_empty st.carryover then
          st.running <- false
        else start_epoch st))

let maybe_start st =
  if (not st.running) && Queue.length st.buffer + Queue.length st.carryover > 0 then
    (* Defer to the event loop so all same-instant submissions land in
       the same epoch. *)
    Engine.schedule st.cl.Cluster.engine ~delay:0.0 (fun () ->
        if not st.running then (
          st.running <- true;
          start_epoch st))

let create cl ~name ~process ?(tick = fun () -> ()) ?(max_retries = 100)
    ?(stage_labels = ("sequencing", "barrier")) () =
  let st =
    {
      cl;
      process;
      max_retries;
      buffer = Queue.create ();
      carryover = Queue.create ();
      running = false;
      stage_labels;
    }
  in
  let submit txn ~on_done =
    let now = Engine.now cl.Cluster.engine in
    let ctx =
      match cl.Cluster.tracer with
      | None -> None
      | Some tracer -> Trace.start_txn tracer ~ts:now ~txn_id:txn.Txn.id
    in
    Queue.push
      { txn; enqueued = now; retries = 0; on_done; ctx; wait_from = now }
      st.buffer;
    maybe_start st
  in
  let drain () = maybe_start st in
  Proto.make ~name ~submit ~tick ~drain ()
