#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                             [--cluster-seed N] [--scale F] [--no-audit]
                             [--inject-mismatch]

Builds perfbench/bench.exe with dune, then runs repetitions of the
workload, each in a fresh process, until --seconds of wall time are
spent (at least two; three in traced mode, alternating untraced and
traced), plus one calm-nemesis audit. Every repetition simulates the
same span with the same seeds, so their simulated metrics must agree
byte for byte. Untraced runs time the host-speed reference
(reference.ml) before the first repetition and after each one, and
scale each repetition's wall times by the mean of the two probes around
it against the reference's nominal time. Throughput per wall second
pools every untraced repetition; set-up time is their median.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every correctness check passed. Build output goes to standard error.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

# A whole invocation must end within 180 s: no repetition starts unless
# the slowest one so far would still finish inside BUDGET_S, and any
# single process is killed after PROCESS_TIMEOUT_S.
BUDGET_S = 150
PROCESS_TIMEOUT_S = 160

# Independent clusters simulated per run, so that a run's simulated
# metrics average over seeds: the throughput of one short YCSB or
# hotspot cluster varies by about 10% from seed to seed with the
# planner's choices.
SUBRUNS = {"ycsb_skew_lion": 4, "tpcc_2pc": 2, "hotspot_lion_batch": 2}


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return False
    # dune's own output goes to stderr so stdout ends with the result.
    proc = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_exe(args, timeout):
    """Run bench.exe once; echo its report lines and return the parsed
    JSON record of its last line, or an error string."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return f"timed out after {timeout:.0f}s"
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print("  " + line)
    if proc.returncode != 0 or not lines:
        return f"exit code {proc.returncode}"
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return "unparsable record: " + lines[-1][:200]


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Lion simulator benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--cluster-seed", type=int, default=None,
                    help="cluster seed (default: the workload seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply the simulated spans (self-tests only)")
    ap.add_argument("--no-audit", action="store_true")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="self-test: corrupt the simulated metrics of the first repeat")
    return ap.parse_args(argv)


def sub_seeds(args):
    """(workload seed, cluster seed) of each independent cluster a run
    simulates, derived from the command's seeds."""
    cluster = args.seed if args.cluster_seed is None else args.cluster_seed
    k = 1 if args.trace else SUBRUNS.get(args.workload, 1)
    if k == 1:
        return [(args.seed, cluster)]
    return [(args.seed * 16 + i, cluster * 16 + i) for i in range(k)]


def aggregate(firsts, untraced):
    """End-to-end metrics from (record, slowdown) pairs of the untraced
    processes, where slowdown is the host-speed reference's time over
    its nominal time around that process: txn_per_wall_s is all commits
    over all measured wall time, each process's divided by its
    slowdown; setup_s is the median of set-up time over slowdown; the
    allocation figures are medians; simulated figures pool the first
    run of each sub-seed, as means or, for per-commit figures, weighted
    by commits."""
    e2e = [r["end_to_end"] for r in firsts]
    commits = [r["commits"] for r in firsts]
    total = sum(commits)

    def weighted(name):
        if total == 0:
            return 0.0
        return sum(m[name]["value"] * c for m, c in zip(e2e, commits)) / total

    def mean(name):
        return statistics.fmean(m[name]["value"] for m in e2e)

    def calibrated_rate(name):
        return sum(r["commits"] for r, _ in untraced) / sum(
            r["commits"] / r["end_to_end"][name]["value"] / slow for r, slow in untraced)

    pooled = {
        "sim_tput": mean,
        "sim_p50_us": mean,
        "sim_mean_us": weighted,
        "single_node_ratio": weighted,
        "attempts_per_commit": weighted,
        "bytes_per_txn": weighted,
    }
    metrics = {}
    for name, m in e2e[0].items():
        if name == "txn_per_wall_s":
            value = calibrated_rate(name)
        elif name == "setup_s":
            value = statistics.median(r["end_to_end"][name]["value"] / slow for r, slow in untraced)
        elif name in pooled:
            value = pooled[name](name)
        else:
            value = statistics.median(r["end_to_end"][name]["value"] for r, _ in untraced)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv):
    args = parse_args(argv)
    if not build():
        return 2
    seeds = sub_seeds(args)
    print(f"workload {args.workload}  seed {args.seed}  sub-runs (workload seed, cluster seed)"
          f" {seeds}  trace {args.trace}", flush=True)

    def exe_args(i):
        return ["--workload", args.workload, "--seed", str(seeds[i][0]),
                "--cluster-seed", str(seeds[i][1]), "--scale", repr(args.scale)]

    failures = []  # (message, operations it covers)
    attempted = 0  # transactions run in repetitions and in the audit

    def fail(msg, ops):
        print("CHECK FAILED: " + msg, flush=True)
        failures.append((msg, max(1, ops)))

    # The host-speed reference: its wall time over its nominal time, or
    # None when the probe failed.
    probes = []

    def probe():
        rec = run_exe(["--reference"], PROCESS_TIMEOUT_S)
        if isinstance(rec, str):
            fail("reference probe: " + rec, 1)
            probes.append(None)
        else:
            probes.append(rec["reference_s"] / rec["nominal_s"])

    # Processes cycle through the sub-seeds until the wall budget is
    # spent, and at least once more so that every run has a repetition
    # to check against. In traced mode they alternate untraced and
    # traced, at least untraced-traced-untraced. Untraced runs probe
    # the host's speed before the first repetition and after each.
    start = time.time()
    min_reps = 3 if args.trace else len(seeds) + 1
    reps = []  # (sub-seed index, traced, record, slowdown)
    slowest = 0.0
    k = 0
    if not args.trace:
        probe()
    while k < min_reps or time.time() - start < args.seconds:
        if k >= min_reps and time.time() - start + slowest > BUDGET_S:
            break
        i = k % len(seeds)
        traced = args.trace == 1 and k % 2 == 1
        extra = ["--trace", "1" if traced else "0"]
        if args.inject_mismatch and k == len(seeds):
            extra.append("--inject-mismatch")
        t0 = time.time()
        rec = run_exe(exe_args(i) + extra, PROCESS_TIMEOUT_S)
        if not args.trace:
            probe()
        slowest = max(slowest, time.time() - t0)
        if isinstance(rec, str):
            attempted += 1
            fail(f"repetition {k}: {rec}", 1)
        else:
            attempted += rec["commits"]
            checks = rec["checks"] + [
                f"metric {name} is not a finite number"
                for part in ("end_to_end", "layers")
                for name, m in rec[part].items() if m["value"] is None]
            for check in checks:
                fail(f"repetition {k}: {check}", rec["commits"])
            around = probes[-2:]
            slow = None if args.trace or None in around else statistics.fmean(around)
            if not checks and (args.trace or slow is not None):
                reps.append((i, traced, rec, slow))
        k += 1

    # Determinism across processes: every simulated metric of every
    # repetition equals that of the first run of its sub-seed, byte
    # for byte.
    firsts = {}
    for k, (i, _, rec, _) in enumerate(reps):
        ref = firsts.setdefault(i, rec)["deterministic"]
        if json.dumps(rec["deterministic"]) != json.dumps(ref):
            diff = [n for n, v in rec["deterministic"].items() if ref.get(n) != v]
            fail(f"repetition {k}: deterministic metrics differ: {', '.join(diff)}",
                 rec["commits"])
    firsts = [firsts[i] for i in sorted(firsts)]
    if firsts:
        print("deterministic " + json.dumps([r["deterministic"] for r in firsts]))

    if not args.no_audit:
        rec = run_exe(exe_args(0) + ["--audit"], PROCESS_TIMEOUT_S)
        if isinstance(rec, str):
            attempted += 1
            fail("audit: " + rec, 1)
        else:
            attempted += rec["submitted"]
            if not rec["healthy"]:
                fail("calm-nemesis audit is not healthy", rec["submitted"])

    untraced = [(rec, slow) for _, traced, rec, slow in reps if not traced]
    traced = [rec for _, t, rec, _ in reps if t]
    metrics = {}
    if args.trace == 0 and len(firsts) == len(seeds):
        metrics = aggregate(firsts, untraced)
        # Reported, not gated: the reference's slowdowns and the
        # uncalibrated throughput.
        raw = sum(r["commits"] for r, _ in untraced) / sum(
            r["commits"] / r["end_to_end"]["txn_per_wall_s"]["value"] for r, _ in untraced)
        print("reference slowdown (probe time / nominal) "
              + " ".join(f"{p:.3f}" for p in probes if p is not None))
        print(f"uncalibrated txn_per_wall_s = {raw:.6g} 1/s")
        # Reported, not gated: abort_ratio reads 0 where nothing aborts
        # (attempts_per_commit carries it), and one run's p99 swings
        # with the seed on the shifting hotspot (README.md).
        a = sum(r["aborts"] for r in firsts)
        c = sum(r["commits"] for r in firsts)
        p99 = statistics.fmean(r["deterministic"]["sim_p99_us"] for r in firsts)
        print(f"abort_ratio = {a / (a + c) if a + c else 0.0:.6g} ratio")
        print(f"sim_p99_us = {p99:.6g} us")
    elif args.trace == 1 and untraced and traced:
        metrics = dict(traced[-1]["layers"])
        plain = statistics.median(r["end_to_end"]["txn_per_wall_s"]["value"] for r, _ in untraced)
        spans = statistics.median(r["end_to_end"]["txn_per_wall_s"]["value"] for r in traced)
        metrics["bench.untraced_txn_per_wall_s"] = {"value": plain, "unit": "1/s"}
        metrics["bench.traced_txn_per_wall_s"] = {"value": spans, "unit": "1/s"}
        metrics["bench.trace_overhead_pct"] = {
            "value": 100.0 * (plain - spans) / plain if plain else 0.0, "unit": "%"}
    else:
        fail("no usable repetition", 1)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    attempted = max(1, attempted)
    failed = min(attempted, sum(ops for _, ops in failures))
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
