#!/usr/bin/env python3
"""Benchmark of the Re-Chord simulator: host time and simulated outcomes.

Run from the repository root; each invocation measures one workload in
its own single-threaded process::

    python3 perfbench/run.py --workload stabilize --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one process each

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public entry points of every layer and prints the per-layer split
instead (see README.md).  Every run checks the simulated outcome of each
episode: invariants for any seed, and the exact census in census.json
for the recorded seeds (``--record-census`` rewrites that entry).  The
last line of standard output is one JSON object; a failed check prints
no metrics and exits 1.
"""

from __future__ import annotations

import os

# single-threaded process: numpy (imported by the traffic generator) must
# not start a BLAS thread pool behind the simulator's back
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CENSUS_PATH = HERE / "census.json"
WORKLOADS = ("stabilize", "lookup", "jitter")

#: end-to-end metrics (``--trace 0``), every one reported by every workload
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "round_mean_ms": "ms",
    "round_p90_ms": "ms",
    "sim_rounds": "rounds",
    "peak_rss_mib": "MiB",
}
#: printed in the run record only: they exist on the traffic workloads
#: alone, can be 0, or are the raw inputs of the rescaled host times
RECORD_UNITS = {
    "round_p50_ms": "ms",
    "ops_per_s": "1/s",
    "op_latency_p50_rounds": "rounds",
    "op_latency_p95_rounds": "rounds",
    "op_latency_p99_rounds": "rounds",
    "ops_failed_frac": "frac",
    "rounds_to_stable": "rounds",
    "raw_wall_s": "s",
    "ref_pass_ms": "ms",
    "ref_samples": "count",
}
#: per-layer metrics (``--trace 1``); zero where a layer sits idle
LAYER_UNITS = {
    "core.step.self_s": "s",
    "core.step.calls": "count",
    "core.step.us_mean": "us",
    "core.step.traffic_calls": "count",
    "core.step.per_op": "count",
    "core.replay.calls": "count",
    "core.rule_fires": "count",
    "netsim.round.self_s": "s",
    "netsim.executed": "count",
    "netsim.replayed": "count",
    "netsim.exec_frac": "frac",
    "netsim.pending_mean": "count",
    "netsim.delayed_max": "count",
    "core.network.self_s": "s",
    "core.membership.s": "s",
    "core.membership.calls": "count",
    "core.fingerprint.s": "s",
    "core.fingerprint.calls": "count",
    "core.ideal.s": "s",
    "scenarios.check.s": "s",
    "scenarios.check.calls": "count",
    "scenarios.event.s": "s",
    "traffic.inject.s": "s",
    "traffic.handle.s": "s",
    "traffic.handle.calls": "count",
    "traffic.slo.s": "s",
    "traffic.hops_mean": "hops",
    "traffic.retries": "count",
    "traffic.first_try_frac": "frac",
    "traffic.outstanding_peak": "count",
    "dht.s": "s",
    "dht.calls": "count",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "unattributed_frac": "frac",
    "trace_overhead_frac": "frac",
}


def provenance() -> dict:
    """Where and on what the numbers were measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    info = {
        "git_sha": None,
        "git_dirty": None,
        "src_digest": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=30,
            )
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return info
        if head.returncode == 0:
            info["git_sha"] = head.stdout.strip()
            info["git_dirty"] = bool(status.stdout.strip())
    return info


def percentile(values, q: int) -> float:
    """Interpolated ``q``-th percentile of host times."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(values, q: int):
    """Nearest-rank percentile of simulated latencies, or None unless at
    least ten samples lie beyond it."""
    from repro.traffic.slo import percentile as nearest_rank

    if not values:
        return None
    value = nearest_rank(values, q)
    return value if sum(1 for v in values if v > value) >= 10 else None


def e2e_metrics(episodes, speed: float) -> dict:
    timings = [ep.timing.scaled(speed) for ep in episodes]
    rounds = [r for t in timings for r in t.round_s]
    m = {
        "setup_s": statistics.median(t.setup_s for t in timings),
        # a median: a few jitter seeds re-stabilize in half the rounds of
        # the rest, and a mean over a handful of episodes follows them
        "wall_s": statistics.median(t.wall_s for t in timings),
        "round_mean_ms": statistics.mean(rounds) * 1e3,
        "round_p50_ms": percentile(rounds, 50) * 1e3,
        "sim_rounds": statistics.median(len(t.round_s) for t in timings),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(rounds) >= 100:
        m["round_p90_ms"] = percentile(rounds, 90) * 1e3
    stable = [ep.rounds_to_stable for ep in episodes if ep.rounds_to_stable is not None]
    if stable:
        m["rounds_to_stable"] = statistics.median(stable)
    traffic = [ep.ops for ep in episodes if ep.ops is not None]
    if traffic:
        issued = sum(o["issued"] for o in traffic)
        m["ops_per_s"] = sum(o["completed"] for o in traffic) / sum(t.wall_s for t in timings)
        m["ops_failed_frac"] = 1 - sum(o["routed"] for o in traffic) / issued
        latencies = [v for o in traffic for v in o["latencies"]]
        for q in (50, 95, 99):
            value = tail_percentile(latencies, q)
            if value is not None:
                m[f"op_latency_p{q}_rounds"] = value
    return m


def layer_metrics(episodes, tracer, probe, reference) -> dict:
    s, calls = tracer.self_s, tracer.calls
    wall = sum(ep.timing.wall_s - ep.timing.probe_s for ep in episodes)
    traffic = [ep.ops for ep in episodes if ep.ops is not None]
    completed = sum(o["completed"] for o in traffic)
    hops_n = sum(o["hops_n"] for o in traffic)
    moved = probe.executed + probe.replayed
    unattributed = wall - sum(s.values())
    first = episodes[0].timing
    return {
        "core.step.self_s": s["core.step"],
        "core.step.calls": calls["core.step"],
        "core.step.us_mean": s["core.step"] / calls["core.step"] * 1e6 if calls["core.step"] else 0.0,
        # TrafficPlane.handle runs once per step whose inbox held an AppPayload
        "core.step.traffic_calls": calls["traffic.handle"],
        "core.step.per_op": calls["core.step"] / completed if completed else 0.0,
        "core.replay.calls": calls["core.replay"],
        "core.rule_fires": sum(ep.rule_fires for ep in episodes),
        "netsim.round.self_s": s["netsim.round"],
        "netsim.executed": probe.executed,
        "netsim.replayed": probe.replayed,
        "netsim.exec_frac": probe.executed / moved if moved else 0.0,
        "netsim.pending_mean": probe.pending_sum / probe.rounds if probe.rounds else 0.0,
        "netsim.delayed_max": probe.delayed_max,
        "core.network.self_s": s["core.network"],
        "core.membership.s": s["core.membership"],
        "core.membership.calls": calls["core.membership"],
        "core.fingerprint.s": s["core.fingerprint"],
        "core.fingerprint.calls": calls["core.fingerprint"],
        "core.ideal.s": s["core.ideal"],
        "scenarios.check.s": s["scenarios.check"],
        "scenarios.check.calls": calls["scenarios.check"],
        "scenarios.event.s": s["scenarios.event"],
        "traffic.inject.s": s["traffic.inject"],
        "traffic.handle.s": s["traffic.handle"],
        "traffic.handle.calls": calls["traffic.handle"],
        "traffic.slo.s": s["traffic.slo"],
        "traffic.hops_mean": sum(o["hops_sum"] for o in traffic) / hops_n if hops_n else 0.0,
        "traffic.retries": sum(o["retries"] for o in traffic),
        "traffic.first_try_frac": (
            sum(o["first_try"] for o in traffic) / completed if completed else 0.0
        ),
        "traffic.outstanding_peak": probe.outstanding_peak,
        "dht.s": s["dht"],
        "dht.calls": calls["dht"],
        "traced_wall_s": wall,
        "unattributed_s": unattributed,
        "unattributed_frac": unattributed / wall,
        "trace_overhead_frac": (first.wall_s - first.probe_s) / reference.timing.wall_s - 1,
    }


def load_census() -> dict:
    if CENSUS_PATH.exists():
        return json.loads(CENSUS_PATH.read_text())
    return {}


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {repro.__file__}, not this checkout's src/", file=sys.stderr)
        return 2
    import workloads as W
    from harness import REF_NOMINAL_S, Harness, ReferenceProbe, RoundProbe, Tracer

    play = W.EPISODES[args.workload]
    seeds = W.episode_seeds(args.workload, args.seed, args.seconds)

    tracer = probe = reference = None
    episodes, problems = [], []

    def attempt(h, seed):
        """One episode, or None: a crashed episode is a failed check."""
        gc.collect()  # start every episode from the same heap state
        try:
            return play(h, seed)
        except Exception as exc:
            traceback.print_exc()
            problems.append((seed, f"raised {exc!r}"))
            return None

    with ReferenceProbe() as host_speed:
        if args.trace:
            # the same first episode untraced: its wall time prices the tracing
            h = Harness()
            h.install()
            reference = attempt(h, seeds[0])
            h.uninstall()
            tracer, probe = Tracer(), RoundProbe()
            tracer.install()
        h = Harness(tracer, probe, None if args.trace else host_speed)
        h.install()
        for seed in seeds:
            ep = attempt(h, seed) if not problems else None
            if ep is None:
                break
            episodes.append(ep)

    problems += [(ep.seed, p) for ep in episodes for p in ep.problems]
    # re-recording replaces the census, so it checks the invariants only
    recorded = None if args.record_census else load_census().get(args.workload, {}).get(str(args.seed))
    if recorded is not None:
        for ep, want in zip(episodes, recorded):
            if ep.census != want:
                problems.append((ep.seed, f"census {ep.census} != recorded {want}"))
    if problems:
        for seed, p in problems:
            print(f"perfbench: FAILED episode seed {seed}: {p}", file=sys.stderr)
        failed = len({seed for seed, _ in problems})
        print(json.dumps({"correct": False, "attempted": len(seeds), "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        metrics = layer_metrics(episodes, tracer, probe, reference)
        units = LAYER_UNITS
    else:
        # host times at the speed the reference kernel had on the tuning box
        metrics = e2e_metrics(episodes, REF_NOMINAL_S / statistics.median(host_speed.samples))
        metrics["raw_wall_s"] = statistics.median(ep.timing.wall_s for ep in episodes)
        metrics["ref_pass_ms"] = statistics.median(host_speed.samples) * 1e3
        metrics["ref_samples"] = len(host_speed.samples)
        units = {**E2E_UNITS, **RECORD_UNITS}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": W.PARAMS[args.workload],
        "episode_seeds": seeds,
        "engine": episodes[0].engine,
        "rule_backend": episodes[0].rule_backend,
        "census_checked": recorded is not None,
        "rounds_measured": sum(len(ep.timing.round_s) for ep in episodes),
        "provenance": provenance(),
        "census": [ep.census for ep in episodes],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(f"workload={args.workload} seed={args.seed} episodes={len(seeds)} "
          f"engine={record['engine']} rule_backend={record['rule_backend']} "
          f"rounds={record['rounds_measured']} census_checked={record['census_checked']}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {units[name]}")
    print(json.dumps({"record": record}, sort_keys=True))

    if args.record_census:
        census = load_census()
        census.setdefault(args.workload, {})[str(args.seed)] = record["census"]
        CENSUS_PATH.write_text(json.dumps(census, indent=1, sort_keys=True) + "\n")
    declared = LAYER_UNITS if args.trace else E2E_UNITS
    out = {k: {"value": metrics[k], "unit": u} for k, u in declared.items() if k in metrics}
    print(json.dumps({"correct": True, "attempted": len(seeds), "failed": 0, "metrics": out}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    ok, attempted, failed, merged = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1  # the workload could not run at all
        ok = ok and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged if ok else {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="nominal run length; sets the number of episodes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-census", action="store_true",
                        help="store this seed's episode census in census.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
