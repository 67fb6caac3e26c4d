(* The repository benchmark (see README.md next to this file).

   One process runs one repetition of one workload: a complete
   [Runner.run] over a fixed span of simulated time, so every simulated
   metric is an exact function of (workload seed, cluster seed) and
   must repeat bit for bit; only wall-time and allocation figures vary.
   Its last line of output is one JSON record. run.py starts the
   repetitions, compares them and aggregates the metrics; [--audit]
   runs the calm-nemesis audit instead, and [--reference] times the
   host-speed reference of reference.ml.

   The cluster is driven only through public entry points: [Runner.run]
   (its [setup] hook captures the [Cluster.t]), the [Proto.t] closures,
   the generator closure, and read-only counters. Per-layer figures
   come from spans placed around those closures and from replaying the
   run's recorded transactions through the layers' public functions. *)

module Cluster = Lion_store.Cluster
module Config = Lion_store.Config
module Kvstore = Lion_store.Kvstore
module Engine = Lion_sim.Engine
module Network = Lion_sim.Network
module Server = Lion_sim.Server
module Metrics = Lion_sim.Metrics
module Proto = Lion_protocols.Proto
module Batch = Lion_protocols.Batch
module Txn = Lion_workload.Txn
module Planner = Lion_core.Planner
module Router = Lion_core.Router
module Runner = Lion_harness.Runner
module Workloads = Lion_harness.Workloads
module Costmodel = Lion_analysis.Costmodel
module Heatgraph = Lion_analysis.Heatgraph
module Clump = Lion_analysis.Clump
module Rearrange = Lion_analysis.Rearrange
module Lstm = Lion_nn.Lstm
module Dataset = Lion_nn.Dataset
module Drive = Lion_audit.Drive
module Nemesis = Lion_audit.Nemesis

let wall () = Unix.gettimeofday ()

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let per a b = if b = 0 then 0.0 else a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  name : string;
  cfg : Config.t;
  batch : bool;
  warmup : float;  (** simulated seconds before the measured window *)
  duration : float;  (** measured simulated seconds *)
  planner : Planner.config option;  (** [Some] for the Lion protocols *)
  make : Cluster.t -> Proto.t * Planner.t option;
  gen : seed:int -> time:float -> Txn.t;
  audit_s : float;
      (** simulated seconds of the calm-nemesis audit; past the first
          planner tick (1 s) where a planner exists *)
}

(* Paper §VI-C1 stress setting: costly, rate-limited remastering. *)
let slow_remaster cfg =
  { cfg with Config.remaster_delay = 3000.0; remaster_cooldown = 30_000.0 }

let lion_config = { Planner.default_config with Planner.predict = true; use_lstm = true }

(* [scale] shrinks the simulated spans; the benchmark proper always
   runs at 1, the self-tests use small scales. *)
let workloads ~scale =
  let ycsb_cfg = Config.default in
  let tpcc_cfg = Config.default in
  let hot_cfg = slow_remaster Config.default in
  (* Four hotspot phases (A/B/C/D) of [period] seconds each, so that
     the planner ticks (once a simulated second) three times per phase. *)
  let period = 3.0 *. scale in
  [
    {
      name = "ycsb_skew_lion";
      cfg = ycsb_cfg;
      batch = false;
      warmup = 0.5 *. scale;
      duration = 1.0 *. scale;
      planner = Some lion_config;
      make =
        (fun cl ->
          let p, pl = Lion_core.Standard.create_with_planner ~config:lion_config cl in
          (p, Some pl));
      gen = (fun ~seed -> Workloads.ycsb ~seed ~skew:0.8 ~cross:0.5 ycsb_cfg);
      audit_s = 1.2 *. scale;
    };
    {
      name = "tpcc_2pc";
      cfg = tpcc_cfg;
      batch = false;
      warmup = 0.5 *. scale;
      duration = 1.0 *. scale;
      planner = None;
      make = (fun cl -> (Lion_protocols.Twopc.create cl, None));
      gen = (fun ~seed -> Workloads.tpcc ~seed ~cross:0.5 tpcc_cfg);
      audit_s = 0.5 *. scale;
    };
    {
      name = "hotspot_lion_batch";
      cfg = hot_cfg;
      batch = true;
      warmup = 1.0 *. scale;
      duration = (4.0 *. period) -. (1.0 *. scale);
      planner = Some lion_config;
      make =
        (fun cl ->
          let p, pl = Lion_core.Batch_mode.create_with_planner ~config:lion_config cl in
          (p, Some pl));
      gen = (fun ~seed -> Workloads.dynamic_position ~seed ~period hot_cfg);
      audit_s = 1.2 *. scale;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Spans (traced repetitions only) *)

type span = {
  mutable calls : int;
  mutable secs : float;
  mutable words : float;
}

type spans = {
  gen_s : span;
  make_s : span;
  submit_s : span;
  tick_s : span;
  drain_s : span;
  mutable depth : int;
  mutable last_exit : float;
  mutable wrapped : float;  (** wall inside outermost spans *)
  mutable residual : float;  (** wall between outermost spans *)
}

let new_span () = { calls = 0; secs = 0.0; words = 0.0 }

let new_spans () =
  {
    gen_s = new_span ();
    make_s = new_span ();
    submit_s = new_span ();
    tick_s = new_span ();
    drain_s = new_span ();
    depth = 0;
    last_exit = wall ();
    wrapped = 0.0;
    residual = 0.0;
  }

let within sp s f =
  let t0 = wall () in
  let w0 = Gc.minor_words () in
  if sp.depth = 0 then sp.residual <- sp.residual +. (t0 -. sp.last_exit);
  sp.depth <- sp.depth + 1;
  let r = f () in
  sp.depth <- sp.depth - 1;
  let t1 = wall () in
  s.calls <- s.calls + 1;
  s.secs <- s.secs +. (t1 -. t0);
  s.words <- s.words +. (Gc.minor_words () -. w0);
  if sp.depth = 0 then (
    sp.wrapped <- sp.wrapped +. (t1 -. t0);
    sp.last_exit <- t1);
  r

(* Transactions recorded in a traced repetition, for the replays: at
   most [per_bucket] per simulated second, with the client-visible
   latency of each. *)
let per_bucket = 2_000

type recording = {
  buckets : Txn.t list array;  (** newest first, per simulated second *)
  counts : int array;
  latencies : float Queue.t;
}

(* ------------------------------------------------------------------ *)
(* One repetition *)

type rep = {
  res : Runner.result;
  setup_s : float;
  window_s : float;
  words : float;  (** minor words allocated in the measured window *)
  events : int;  (** engine events in the measured window *)
  msgs : int;
  busy : float;  (** server busy µs in the measured window *)
  qwait : float;
  max_queue : int;
  util_max : float;
  touched_keys : int;
  rounds : int;
  plan_adds : int;
  cl : Cluster.t;
  planner : Planner.t option;
  traced : (spans * recording) option;
}

let servers cl = Array.append cl.Cluster.workers cl.Cluster.services

let sum_servers cl f = Array.fold_left (fun acc s -> acc +. f s) 0.0 (servers cl)

let run_rep w ~seed ~cluster_seed ~traced =
  let rc =
    {
      Runner.quick with
      Runner.warmup = w.warmup;
      duration = w.duration;
      tick_every = 1.0;
    }
  in
  let sp = if traced then Some (new_spans ()) else None in
  let buckets = int_of_float (ceil (w.warmup +. w.duration)) + 2 in
  let rc_rec =
    {
      buckets = Array.make buckets [];
      counts = Array.make buckets 0;
      latencies = Queue.create ();
    }
  in
  let cl_ref = ref None and planner_ref = ref None in
  let warm = ref None in
  let plan_adds = ref 0 in
  let snapshot cl =
    ( wall (),
      Gc.minor_words (),
      Engine.events_processed cl.Cluster.engine,
      Network.message_count cl.Cluster.network,
      sum_servers cl Server.busy_time,
      sum_servers cl Server.queue_wait,
      Array.map Server.busy_time cl.Cluster.workers )
  in
  let setup cl =
    cl_ref := Some cl;
    (* One extra engine event at the warm-up boundary marks where the
       measured window starts; it reads counters and changes nothing. *)
    Engine.at cl.Cluster.engine ~time:(Engine.seconds w.warmup) (fun () ->
        warm := Some (snapshot cl))
  in
  let gen0 = w.gen ~seed in
  let gen =
    match sp with
    | None -> gen0
    | Some sp ->
        fun ~time ->
          let txn = within sp sp.gen_s (fun () -> gen0 ~time) in
          let b = Stdlib.min (buckets - 1) (int_of_float (time /. 1e6)) in
          if rc_rec.counts.(b) < per_bucket then (
            rc_rec.counts.(b) <- rc_rec.counts.(b) + 1;
            rc_rec.buckets.(b) <- txn :: rc_rec.buckets.(b));
          txn
  in
  let make cl =
    let p, pl =
      match sp with None -> w.make cl | Some sp -> within sp sp.make_s (fun () -> w.make cl)
    in
    planner_ref := pl;
    (* The size of each plan is a read-only counter, totalled per tick. *)
    let count_adds () =
      Option.iter (fun pl -> plan_adds := !plan_adds + Planner.last_plan_adds pl) pl
    in
    match sp with
    | None -> { p with Proto.tick = (fun () -> p.Proto.tick (); count_adds ()) }
    | Some sp ->
        let engine = cl.Cluster.engine in
        let submit txn ~on_done =
          let t0 = Engine.now engine in
          let on_done () =
            if Queue.length rc_rec.latencies < per_bucket * buckets then
              Queue.push (Engine.now engine -. t0) rc_rec.latencies;
            on_done ()
          in
          within sp sp.submit_s (fun () -> p.Proto.submit txn ~on_done)
        in
        let tick () =
          within sp sp.tick_s p.Proto.tick;
          count_adds ()
        in
        let drain () = within sp sp.drain_s p.Proto.drain in
        { p with Proto.submit; tick; drain }
  in
  Gc.full_major ();
  let t0 = wall () in
  Option.iter (fun sp -> sp.last_exit <- t0) sp;
  let res = Runner.run ~seed:cluster_seed ~batch:w.batch ~setup ~cfg:w.cfg ~make ~gen rc in
  let t1 = wall () in
  Option.iter (fun sp -> sp.residual <- sp.residual +. (t1 -. sp.last_exit)) sp;
  let w1 = Gc.minor_words () in
  let cl = Option.get !cl_ref in
  let tw, ww, ew, mw, bw, qw, per_worker =
    match !warm with
    | Some s -> s
    | None -> failwith "warm-up marker never fired"
  in
  let window_us = Engine.seconds w.duration in
  let util_max =
    let m = ref 0.0 in
    Array.iteri
      (fun i s ->
        let busy = Server.busy_time s -. per_worker.(i) in
        let u = busy /. (float_of_int (Server.capacity s) *. window_us) in
        if u > !m then m := u)
      cl.Cluster.workers;
    !m
  in
  {
    res;
    setup_s = tw -. t0;
    window_s = t1 -. tw;
    words = w1 -. ww;
    (* the marker event itself is not simulation work *)
    events = Engine.events_processed cl.Cluster.engine - ew - 1;
    msgs = Network.message_count cl.Cluster.network - mw;
    busy = sum_servers cl Server.busy_time -. bw;
    qwait = sum_servers cl Server.queue_wait -. qw;
    max_queue = Array.fold_left (fun m s -> Stdlib.max m (Server.max_queue s)) 0 (servers cl);
    util_max;
    touched_keys = Kvstore.touched_keys cl.Cluster.store;
    rounds = (match !planner_ref with Some pl -> Planner.rounds pl | None -> 0);
    plan_adds = !plan_adds;
    cl;
    planner = !planner_ref;
    traced = Option.map (fun sp -> (sp, rc_rec)) sp;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let attempts r = r.res.Runner.commits + r.res.Runner.aborts

(* All digits; a non-finite value becomes JSON null and fails the run. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* Every simulated quantity of a repetition, printed with all digits:
   two repetitions of one (workload, seeds) must agree byte for byte. *)
let fingerprint r =
  let x = r.res in
  let f = num and i = string_of_int in
  [
    ("commits", i x.Runner.commits);
    ("aborts", i x.Runner.aborts);
    ("sim_tput", f x.Runner.throughput);
    ("sim_p50_us", f x.Runner.p50);
    ("sim_p99_us", f x.Runner.p99);
    ("sim_mean_us", f x.Runner.mean_latency);
    ("single_node_ratio", f x.Runner.single_node_ratio);
    ("bytes_per_txn", f x.Runner.bytes_per_txn);
    ("events", i r.events);
    ("messages", i r.msgs);
    ("server_busy_us", f r.busy);
    ("server_queue_wait_us", f r.qwait);
    ("remasters", i x.Runner.remasters);
    ("replica_adds", i x.Runner.replica_adds);
    ("touched_keys", i r.touched_keys);
    ("planner_rounds", i r.rounds);
    ("plan_adds", i r.plan_adds);
  ]

let json_of_pairs pairs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) pairs)
  ^ "}"

let txn_per_wall_s r = float_of_int r.res.Runner.commits /. r.window_s

(* The repetition's share of the end-to-end metrics; the wall-time
   ones are combined across processes by run.py. *)
let end_to_end r ~peak_heap_mb =
  let x = r.res in
  [
    ("txn_per_wall_s", txn_per_wall_s r, "1/s");
    ("setup_s", r.setup_s, "s");
    ("words_per_txn", per r.words x.Runner.commits, "words");
    ("peak_heap_mb", peak_heap_mb, "MB");
    ("sim_tput", x.Runner.throughput, "1/s");
    ("sim_p50_us", x.Runner.p50, "us");
    ("sim_mean_us", x.Runner.mean_latency, "us");
    ("single_node_ratio", x.Runner.single_node_ratio, "ratio");
    ("attempts_per_commit", per (float_of_int (attempts r)) x.Runner.commits, "ratio");
    ("bytes_per_txn", x.Runner.bytes_per_txn, "B");
  ]

(* ------------------------------------------------------------------ *)
(* Replays for the traced mode *)

(* Time [f] over the sample, repeating whole passes until at least
   [min_s] of wall time or [max_passes] passes; returns (seconds per
   item, minor words per item). *)
let time_passes ?(min_s = 0.05) ?(max_passes = 50) items f =
  let n = Array.length items in
  if n = 0 then (0.0, 0.0)
  else (
    let passes = ref 0 and secs = ref 0.0 and words = ref 0.0 in
    while !passes < max_passes && (!passes = 0 || !secs < min_s) do
      let t0 = wall () and w0 = Gc.minor_words () in
      Array.iter f items;
      secs := !secs +. (wall () -. t0);
      words := !words +. (Gc.minor_words () -. w0);
      incr passes
    done;
    let calls = float_of_int (!passes * n) in
    (!secs /. calls, !words /. calls))

let replay_metrics (w : workload) r =
  let sp, rec_ = Option.get r.traced in
  let cl = r.cl in
  let placement = cl.Cluster.placement in
  let all_txns =
    Array.concat (Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) rec_.buckets))
  in
  let ns s = s *. 1e9 in
  let commits = r.res.Runner.commits in
  (* Router and cost model: the captured planner's model, final placement. *)
  let route_ns, route_words, route_calls, cost_ns =
    match r.planner with
    | None -> (0.0, 0.0, 0, 0.0)
    | Some pl ->
        let router = Router.create cl (Planner.cost_model pl) in
        let s, wd = time_passes all_txns (fun t -> ignore (Router.route router t)) in
        let cost = Planner.cost_model pl in
        let nodes = Cluster.node_count cl in
        let c, _ =
          time_passes all_txns (fun t ->
              for node = 0 to nodes - 1 do
                ignore (Costmodel.txn_route_cost cost placement ~parts:t.Txn.parts ~node)
              done)
        in
        (ns s, wd, Array.length all_txns, ns c /. float_of_int nodes)
  in
  (* Planner: observe on a fresh planner, then clump generation and
     rearrangement on one heat graph per recorded second. *)
  let observe_ns, clump_ms, rearrange_ms =
    match (w.planner, r.planner) with
    | Some pcfg, Some pl ->
        let fresh = Planner.create pcfg cl in
        let s, _ = time_passes ~max_passes:1 all_txns (Planner.observe fresh) in
        let cost = Planner.cost_model pl in
        let parts = Cluster.partition_count cl and nodes = Cluster.node_count cl in
        let clump_t = ref [] and rearr_t = ref [] in
        Array.iter
          (fun bucket ->
            if bucket <> [] then (
              let g = Heatgraph.create ~partitions:parts in
              List.iter (fun t -> Heatgraph.add_txn g ~parts:t.Txn.parts) bucket;
              let total = ref 0.0 and hottest = ref 0.0 in
              for p = 0 to parts - 1 do
                let v = Heatgraph.vertex_weight g p in
                total := !total +. v;
                if v > !hottest then hottest := v
              done;
              let max_weight =
                Stdlib.max (0.35 *. !total /. float_of_int nodes) (2.2 *. !hottest)
              in
              let alpha = pcfg.Planner.alpha_factor *. Heatgraph.mean_edge_weight g in
              let t0 = wall () in
              let clumps =
                Clump.generate ~max_weight g ~placement ~alpha
                  ~cross_boost:pcfg.Planner.cross_boost
              in
              let t1 = wall () in
              ignore (Rearrange.rearrange cost placement clumps ~epsilon:pcfg.Planner.epsilon ());
              let t2 = wall () in
              clump_t := (t1 -. t0) :: !clump_t;
              rearr_t := (t2 -. t1) :: !rearr_t))
          rec_.buckets;
        (ns s, 1e3 *. median !clump_t, 1e3 *. median !rearr_t)
    | _ -> (0.0, 0.0, 0.0)
  in
  (* Batch conflict analysis, per recorded second, with the window
     Lion's batch mode uses. *)
  let conflict_ns =
    if not w.batch then 0.0
    else (
      let window = 4 * Config.total_workers w.cfg in
      let arrays =
        Array.of_list
          (List.filter_map
             (fun l -> if l = [] then None else Some (Array.of_list (List.rev l)))
             (Array.to_list rec_.buckets))
      in
      let items = Array.fold_left (fun acc a -> acc + Array.length a) 0 arrays in
      (* seconds per recorded second's array, spread over its transactions *)
      let s, _ =
        time_passes arrays (fun a ->
            ignore (Batch.conflict_verdicts ~window ~granule:(fun k -> (k.Kvstore.part, k.slot)) a))
      in
      if items = 0 then 0.0 else ns s *. float_of_int (Array.length arrays) /. float_of_int items)
  in
  (* Forecaster: the LSTM the planner is configured with, on every
     10-bucket window of the run's commits-per-second series. The
     planner itself never trains it: its class series hold 20 buckets
     and the forecaster wants 21, so it always takes the trend fallback
     (README.md). *)
  let lstm_train_ms, lstm_predict_us =
    let series = r.res.Runner.throughput_series in
    let uses_lstm = match w.planner with Some c -> c.Planner.use_lstm | None -> false in
    if (not uses_lstm) || Array.length series <= 10 then (0.0, 0.0)
    else (
      let norm, samples = Dataset.windows_normalized series ~window:10 in
      let net = Lstm.create ~seed:5 ~input:1 () in
      let t0 = wall () in
      ignore (Lstm.train net samples ~epochs:30 ~lr:0.01);
      let t1 = wall () in
      let input = Dataset.last_window series ~window:10 norm in
      let s, _ = time_passes [| input |] (fun i -> ignore (Lstm.predict net i)) in
      (1e3 *. (t1 -. t0), 1e6 *. s))
  in
  (* Key-value store sessions, on workloads whose protocol uses the store. *)
  let session_ns =
    if r.touched_keys = 0 then 0.0
    else (
      let store = Kvstore.create () in
      let s, _ =
        time_passes ~max_passes:1 all_txns (fun t ->
            let s = Kvstore.begin_session store in
            List.iter
              (function Txn.Read k -> Kvstore.read s k | Txn.Write k -> Kvstore.write s k)
              t.Txn.ops;
            if Kvstore.try_reserve s then Kvstore.finalize s else Kvstore.abort_session s)
      in
      ns s)
  in
  let record_commit_ns =
    let m = Metrics.create ~seed:1 (Engine.create ()) in
    let phases = r.res.Runner.phase_fractions in
    let lat = Array.of_seq (Queue.to_seq rec_.latencies) in
    let s, _ =
      time_passes lat (fun latency ->
          Metrics.record_commit m ~latency ~single_node:false ~remastered:false
            ~phases:(List.map (fun (p, f) -> (p, f *. latency)) phases))
    in
    ns s
  in
  let span_ns (s : span) = per (ns s.secs) s.calls
  and span_words (s : span) = per s.words s.calls in
  let tick_ms = if Option.is_none r.planner then 0.0 else 1e3 *. per sp.tick_s.secs sp.tick_s.calls in
  [
    ("sim.engine.events_per_txn", per (float_of_int r.events) commits, "count");
    ("sim.engine.residual_ns_per_event", per (ns sp.residual) r.res.Runner.engine_events, "ns");
    ("sim.network.msgs_per_txn", per (float_of_int r.msgs) commits, "count");
    ("sim.server.busy_us_per_txn", per r.busy commits, "us");
    ("sim.server.queue_wait_us_per_txn", per r.qwait commits, "us");
    ("sim.server.max_queue", float_of_int r.max_queue, "count");
    ("sim.server.util_max", r.util_max, "ratio");
    ("workload.gen_ns_per_txn", span_ns sp.gen_s, "ns");
    ("workload.gen_words_per_txn", span_words sp.gen_s, "words");
    ("protocols.make_ms", 1e3 *. sp.make_s.secs, "ms");
    ("protocols.submit_ns_per_txn", span_ns sp.submit_s, "ns");
    ("protocols.submit_words_per_txn", span_words sp.submit_s, "words");
    ("protocols.drain_us", 1e6 *. sp.drain_s.secs, "us");
    ("protocols.batch.conflict_ns_per_txn", conflict_ns, "ns");
    ("core.router.calls", float_of_int route_calls, "count");
    ("core.router.route_ns", route_ns, "ns");
    ("core.router.route_words", route_words, "words");
    ("analysis.costmodel.route_cost_ns", cost_ns, "ns");
    ("core.planner.rounds", float_of_int r.rounds, "count");
    ("core.planner.tick_ms", tick_ms, "ms");
    ("core.planner.observe_ns", observe_ns, "ns");
    ("core.planner.plan_adds", float_of_int r.plan_adds, "count");
    ("analysis.clump.generate_ms", clump_ms, "ms");
    ("analysis.rearrange_ms", rearrange_ms, "ms");
    ("nn.lstm_train_ms", lstm_train_ms, "ms");
    ("nn.lstm_predict_us", lstm_predict_us, "us");
    ( "store.remasters_per_ktxn",
      per (1e3 *. float_of_int r.res.Runner.remasters) commits,
      "count" );
    ("store.replica_adds", float_of_int r.res.Runner.replica_adds, "count");
    ("store.kvstore.touched_keys", float_of_int r.touched_keys, "count");
    ("store.kvstore.session_ns_per_txn", session_ns, "ns");
    ("sim.metrics.record_commit_ns", record_commit_ns, "ns");
    ("sim.metrics.p99_us", r.res.Runner.p99, "us");
  ]
  @ List.map
      (fun (p, f) -> ("metrics.phase." ^ Metrics.phase_name p, f, "ratio"))
      r.res.Runner.phase_fractions

(* ------------------------------------------------------------------ *)
(* Driver: one repetition (or the audit) per process; run.py repeats,
   checks determinism across processes and aggregates. *)

let usage =
  "bench.exe --workload NAME --seed N [--cluster-seed N] [--trace 0|1] [--scale F]\n\
  \          [--inject-mismatch] | --audit | --reference"

let metrics_json l =
  json_of_pairs
    (List.map (fun (n, v, u) -> (n, json_of_pairs [ ("value", num v); ("unit", Printf.sprintf "%S" u) ])) l)

let () =
  let workload = ref "" and seed = ref (-1) and cluster_seed = ref (-1) in
  let trace = ref 0 and scale = ref 1.0 in
  let audit = ref false and inject = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--cluster-seed" :: v :: rest -> cluster_seed := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--scale" :: v :: rest -> scale := float_of_string v; parse rest
    | "--audit" :: rest -> audit := true; parse rest
    | "--reference" :: _ ->
        print_endline
          (json_of_pairs
             [ ("reference_s", num (Reference.run ())); ("nominal_s", num Reference.nominal_s) ]);
        exit 0
    | "--inject-mismatch" :: rest -> inject := true; parse rest
    | a :: _ ->
        prerr_endline ("unknown argument " ^ a ^ "\n" ^ usage);
        exit 2
  in
  (try parse (List.tl (Array.to_list Sys.argv))
   with Failure _ ->
     prerr_endline usage;
     exit 2);
  let ws = workloads ~scale:!scale in
  let w =
    match List.find_opt (fun w -> w.name = !workload) ws with
    | Some w -> w
    | None ->
        prerr_endline
          ("--workload must be one of: " ^ String.concat ", " (List.map (fun w -> w.name) ws));
        exit 2
  in
  if !seed < 0 then (prerr_endline usage; exit 2);
  let seed = !seed in
  let cluster_seed = if !cluster_seed < 0 then seed else !cluster_seed in
  if !audit then (
    (* The calm-nemesis audit: the same protocol and generator, drained
       to quiescence, must be serializable, converged and live. It is
       also where event-budget exhaustion shows: [Runner.run] never
       drains with [Engine.run_all], so the timed repetitions cannot. *)
    let duration = w.audit_s in
    let t0 = wall () in
    let o =
      Drive.run ~seed:cluster_seed ~duration ~cfg:w.cfg
        ~make:(fun cl -> fst (w.make cl))
        ~gen:(w.gen ~seed) ~nemesis:Nemesis.calm ()
    in
    let healthy = Drive.healthy o in
    Printf.printf "audit (calm nemesis, %gs): %d submitted, %d commits, healthy=%b, %.1fs\n"
      duration o.Drive.submitted o.Drive.commits healthy (wall () -. t0);
    if not healthy then Format.printf "%a@." Drive.pp_outcome o;
    print_endline
      (json_of_pairs
         [
           ("healthy", string_of_bool healthy);
           ("submitted", string_of_int o.Drive.submitted);
         ]);
    exit 0);
  let traced = !trace = 1 in
  let r = run_rep w ~seed ~cluster_seed ~traced in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let fp = fingerprint r in
  (* Self-test hook: corrupt one deterministic metric so the
     cross-process comparison must trip. *)
  let fp =
    if !inject then List.map (fun (n, v) -> if n = "commits" then (n, v ^ "1") else (n, v)) fp
    else fp
  in
  let commits = r.res.Runner.commits in
  let checks =
    List.filter_map Fun.id
      [
        (if commits <= 0 then Some "no commits" else None);
        (* Wrapped plus residual time is the run's wall time by
           construction; what can go wrong is a span counted outside the
           outermost spans or a wall clock that steps back. *)
        (match r.traced with
        | Some (sp, _) ->
            let over =
              List.filter
                (fun (_, (s : span)) -> s.secs > sp.wrapped +. 1e-6)
                [
                  ("gen", sp.gen_s);
                  ("make", sp.make_s);
                  ("submit", sp.submit_s);
                  ("tick", sp.tick_s);
                  ("drain", sp.drain_s);
                ]
            in
            if sp.residual < 0.0 || over <> [] then
              Some
                (Printf.sprintf "spans inconsistent: residual %.6fs, wrapped %.6fs, over: %s"
                   sp.residual sp.wrapped
                   (String.concat "," (List.map fst over)))
            else None
        | None -> None);
      ]
  in
  Printf.printf "%s%s: %d commits, setup %.3fs, window %.3fs, %.0f txn/wall-s\n%!" w.name
    (if traced then " (traced)" else "")
    commits r.setup_s r.window_s (txn_per_wall_s r);
  let layers = if traced then replay_metrics w r else [] in
  print_endline
    (json_of_pairs
       [
         ("commits", string_of_int commits);
         ("aborts", string_of_int r.res.Runner.aborts);
         ("checks", "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") checks) ^ "]");
         ("end_to_end", metrics_json (end_to_end r ~peak_heap_mb));
         ("layers", metrics_json layers);
         ("deterministic", json_of_pairs fp);
       ])
