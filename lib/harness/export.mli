(** CSV export of experiment results, for external plotting.

    Cells are quoted/escaped per RFC 4180 when they contain commas,
    quotes or newlines. *)

val write_csv : path:string -> header:string list -> rows:string list list -> unit

val series_csv : path:string -> (string * float array) list -> unit
(** Per-second series, one labelled column per series (e.g. throughput
    of several protocols over the same run), one row per second.
    Shorter series pad with empty cells. *)

val result_rows : (string * Runner.result) list -> string list * string list list
(** Header + one summary row per labelled result — feed to [write_csv].
    Columns: throughput, latency percentiles, ratios, adaptation
    counters, per-phase latency fractions ([frac_execution] …
    [frac_replication]), the fault counters (timeouts, retries, drops)
    and the availability summary (unavailable seconds, time to recover
    — "inf" when the run ends degraded — and goodput under fault). *)

val result_csv : path:string -> (string * Runner.result) list -> unit

val counter_columns : Lion_sim.Metrics.counter list -> string list
(** CSV column names for counters: {!Lion_sim.Metrics.counter_name}
    with [_] for [-] (["breaker_rejects"]). *)

val counter_cells :
  Runner.result -> Lion_sim.Metrics.counter list -> string list
(** The matching cells: each counter's measured-window count. *)
