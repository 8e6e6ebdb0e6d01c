"""The three benchmark workloads, each as a seeded *episode*.

An episode builds its start state (timed as setup), runs the measured
phase through the library's public API with its defaults (no engine or
rule backend chosen, no tuning the library does not apply itself), and
then, untimed, checks the simulated outcome.  Traffic is an open loop in
simulated time: a fixed arrival rate per round and no outstanding-op cap,
so host speed never changes what is simulated.

Sizes are smaller than the paper's n=256 figures so that a run can hold
several episodes (seeds) within its time budget: rounds-to-stable varies
by ~14% from seed to seed, and only averaging over seeds inside a run
keeps runs with different seeds comparable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from harness import Timing

#: workload name -> parameters (recorded in every result)
PARAMS: Dict[str, dict] = {
    "stabilize": {"builder": "build_random_network", "n": 64},
    "lookup": {
        "builder": "build_ideal_network", "n": 128, "rate": 32, "rounds": 32,
        "op_mix": "lookup", "key_universe": 1024, "popularity": "zipf",
        "deadline": 48,
    },
    "jitter": {
        "scenario": "jitter-storm", "n": 24, "traffic": "MIXED_TRAFFIC",
        "rate": 8, "max_attempts": 3,
    },
}

#: host seconds of one episode (setup + measured phase) on a 2-core x86
#: box with Python 3.11
NOMINAL_EPISODE_S: Dict[str, float] = {
    "stabilize": 1.4,
    "lookup": 6.5,
    # below the measured ~4.5 s, for eight episodes a run: about one jitter
    # episode in five re-stabilizes in ~48 rounds instead of ~115, and the
    # median of eight episodes lands on a short one less often than of six
    "jitter": 3.75,
}


def episode_seeds(workload: str, seed: int, seconds: int) -> List[int]:
    """The episodes of a run: ``max(1, round(seconds / nominal))`` of
    them, so the simulated work of a run depends on its seed and
    ``--seconds`` only, never on host speed."""
    count = max(1, round(seconds / NOMINAL_EPISODE_S[workload]))
    return [seed * 1000 + i for i in range(count)]


@dataclass
class Episode:
    seed: int
    timing: Timing
    #: exact simulated outcome, compared against census.json
    census: dict
    #: invariant violations (empty when the episode is correct)
    problems: List[str]
    engine: str
    rule_backend: str
    rule_fires: int
    rounds_to_stable: Optional[int] = None
    #: traffic tally (None without traffic)
    ops: Optional[dict] = None


def _digest(net) -> str:
    return hashlib.sha256(repr(net.fingerprint()).encode()).hexdigest()[:16]


def _ops(collector) -> dict:
    done = collector.completed
    # every op's fate; rule_fires alone cannot see traffic, because a
    # traffic-touched step on a stable peer fires what a replay would
    fates = sorted(
        (c.op_id, c.op, c.origin, c.kid, c.issue_round, c.complete_round,
         c.outcome, c.hops, c.attempt)
        for c in done
    )
    routed = [c for c in done if c.routed]
    hops = [c.hops for c in done if c.hops is not None]
    return {
        "issued": collector.completed_count + len(collector.outstanding),
        "completed": len(done),
        "routed": len(routed),
        "first_try": sum(1 for c in routed if c.attempt == 1),
        "latencies": [c.latency for c in routed],
        "hops_sum": sum(hops),
        "hops_n": len(hops),
        "retries": collector.retries,
        "outcomes": dict(sorted(collector.outcomes.items())),
        "digest": hashlib.sha256(repr(fates).encode()).hexdigest()[:16],
    }


def _owner_components(net) -> int:
    """Weakly connected components of the overlay, counted over peers."""
    parent = {pid: pid for pid in net.peers}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _kind in net.snapshot().edges():
        if u.owner in parent and v.owner in parent:
            parent[find(u.owner)] = find(v.owner)
    return len({find(pid) for pid in net.peers})


def stabilize(h, seed: int) -> Episode:
    """Random weakly connected start -> run_until_stable (paper §5)."""
    from repro.workloads.initial import build_random_network

    with h.setup():
        net = build_random_network(PARAMS["stabilize"]["n"], seed)
    report = net.run_until_stable()
    timing = h.close()
    problems = [] if net.matches_ideal() else ["stable state is not the ideal topology"]
    fires = net.counters().total()
    return Episode(
        seed, timing,
        census={
            "rounds_to_stable": report.rounds_to_stable,
            "rule_fires": fires,
            "digest": _digest(net),
        },
        problems=problems, engine=net.engine, rule_backend=net.rule_backend,
        rule_fires=fires, rounds_to_stable=report.rounds_to_stable,
    )


def lookup(h, seed: int) -> Episode:
    """Steady Zipf lookups on a stable overlay, then drain."""
    from repro.experiments.scaling import build_ideal_network
    from repro.traffic.generator import WorkloadGenerator
    from repro.traffic.plane import TrafficPlane

    p = PARAMS["lookup"]
    with h.setup():
        net = build_ideal_network(p["n"], seed)
    plane = TrafficPlane(net)
    WorkloadGenerator(
        plane, rate=p["rate"], key_universe=p["key_universe"],
        popularity=p["popularity"], deadline=p["deadline"], seed=seed,
    )
    plane.run(p["rounds"])
    plane.drain()
    timing = h.close()
    ops = _ops(plane.collector)
    problems = []
    if ops["completed"] != ops["issued"] or plane.collector.outstanding:
        problems.append(f"drain left {ops['issued'] - ops['completed']} ops open")
    if ops["routed"] != ops["issued"]:
        problems.append(f"lookups on the ideal overlay failed: {ops['outcomes']}")
    if not net.matches_ideal():
        problems.append("traffic moved the overlay off the ideal topology")
    fires = net.counters().total()
    return Episode(
        seed, timing,
        census={
            "rounds": len(timing.round_s),
            "issued": ops["issued"],
            "outcomes": ops["outcomes"],
            "ops_digest": ops["digest"],
            "rule_fires": fires,
            "digest": _digest(net),
        },
        problems=problems, engine=net.engine, rule_backend=net.rule_backend,
        rule_fires=fires, ops=ops,
    )


def jitter(h, seed: int) -> Episode:
    """jitter-storm with mixed traffic: reordered delivery plus a churn burst."""
    from repro.scenarios import make_scenario, run_scenario
    from repro.scenarios.library import MIXED_TRAFFIC

    p = PARAMS["jitter"]
    traffic = replace(MIXED_TRAFFIC, rate=p["rate"], max_attempts=p["max_attempts"])
    spec = make_scenario(p["scenario"], n=p["n"], seed=seed, traffic=traffic)
    report = run_scenario(spec)  # the harness times its start builder
    timing = h.close()
    net = h.net
    ops = _ops(next(iter(net.peers.values())).traffic.collector)
    problems = []
    if not report.stable:
        problems.append("scenario did not re-stabilize")
    # Theorem 1.1 promises the ideal topology for a weakly connected
    # overlay; crashes can split it, and each part then settles alone
    if not report.ideal and _owner_components(net) == 1:
        problems.append("connected overlay stabilized off the ideal topology")
    if ops["completed"] != ops["issued"]:
        problems.append(f"{ops['issued'] - ops['completed']} ops never completed")
    return Episode(
        seed, timing,
        census={
            "rounds_total": report.rounds_total,
            "recovery_rounds": report.recovery_rounds,
            "stable": report.stable,
            "ideal": report.ideal,
            "outcomes": ops["outcomes"],
            "ops_digest": ops["digest"],
            "rule_fires": report.rule_fires,
            "config_digest": report.config_digest,
        },
        problems=problems, engine=net.engine, rule_backend=net.rule_backend,
        rule_fires=report.rule_fires, rounds_to_stable=report.recovery_rounds,
        ops=ops,
    )


EPISODES: Dict[str, Callable] = {
    "stabilize": stabilize,
    "lookup": lookup,
    "jitter": jitter,
}
