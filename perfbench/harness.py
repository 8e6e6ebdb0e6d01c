"""Clocks and the layer tracer, installed from outside the library.

Nothing here edits ``src/``: the harness replaces public functions with
timing wrappers at run time, in the benchmark process only.

* :class:`Harness` is always installed.  It owns the two hooks every run
  needs: the *setup* bracket (building the start state, excluded from the
  measured phase) and the *round clock*, one ``perf_counter`` stamp after
  each ``ReChordNetwork.run_round``.  The gap between consecutive stamps is
  the host time of one simulated round, including the per-round work of
  the layers above the kernel (injection, deadline sweeps, scenario
  sampling).
* :class:`Tracer` is installed only by a traced run (``--trace 1``).  It
  wraps the public entry points of each layer and keeps a stack of open
  calls, so every call's *self time* (its duration minus that of the
  wrapped calls it made) is charged to exactly one layer label.  The
  traced wall time is therefore the sum of the layer self times plus the
  time spent outside every wrapped call (``unattributed``).
* :class:`ReferenceProbe` times a fixed pure-Python kernel in a child
  process; the round clock asks for a probe every ``REF_EVERY_S`` of the
  measured phase.  Untraced runs rescale their host times by the median
  probe, which takes out most of the minute-scale drift in host speed
  (see README "Noise").
"""

from __future__ import annotations

import importlib
import os
import random
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


def _patch(owner, attr: str, make: Callable[[Callable], Callable], undo: list) -> None:
    """Replace ``owner.attr`` with ``make(original)``; record the undo.

    For a class only an attribute it defines itself is patched, so a
    subclass that inherits a method is not wrapped twice.  A missing
    attribute is skipped: its time then shows up as unattributed.
    """
    space = vars(owner)
    if attr not in space:
        return
    orig = space[attr]
    wrapper = make(orig)
    wrapper.__wrapped__ = orig
    setattr(owner, attr, wrapper)
    undo.append((owner, attr, orig))


def _unpatch(undo: list) -> None:
    while undo:
        owner, attr, orig = undo.pop()
        setattr(owner, attr, orig)


#: (module, class or None for module functions, attributes, layer label)
TRACED = [
    ("repro.core.network", "ReChordNetwork", ("run_round",), "core.network"),
    ("repro.core.network", "ReChordNetwork", ("join", "leave", "crash"), "core.membership"),
    ("repro.core.network", "ReChordNetwork", ("fingerprint",), "core.fingerprint"),
    ("repro.core.network", "ReChordNetwork", ("matches_ideal",), "core.ideal"),
    ("repro.netsim.scheduler", "SynchronousScheduler", ("run_round", "pending_messages"), "netsim.round"),
    ("repro.netsim.columnar", "ColumnarScheduler", ("run_round", "pending_messages"), "netsim.round"),
    ("repro.core.protocol", "ReChordPeer", ("step",), "core.step"),
    ("repro.core.protocol", "ReChordPeer", ("replay_step", "replay_steps"), "core.replay"),
    ("repro.traffic.plane", "TrafficPlane", ("issue_batch",), "traffic.inject"),
    ("repro.traffic.generator", "WorkloadGenerator", ("inject",), "traffic.inject"),
    ("repro.traffic.plane", "TrafficPlane", ("handle",), "traffic.handle"),
    ("repro.traffic.slo", "SLOCollector", ("on_reply", "expire"), "traffic.slo"),
    ("repro.dht.storage", "KeyValueStore", ("local_put", "local_get"), "dht"),
    # run_scenario resolves these as globals of its own module
    ("repro.scenarios.executor", None, ("local_check_peer",), "scenarios.check"),
    ("repro.scenarios.executor", None, ("apply_event_spec",), "scenarios.event"),
]


#: entries in the reference table: ~30 MB of objects, well past the L2
#: cache, like the simulator's own heap
REF_ENTRIES = 1 << 17
#: lookups per probe, in a fixed random order
REF_LOOKUPS = 1 << 16
#: one probe's time on the box the benchmark was tuned on (2-vCPU x86 KVM
#: guest, Python 3.11); host times are rescaled to it
REF_NOMINAL_S = 0.04
#: measured-phase seconds between probes: ~8% of the run goes to probes,
#: and a 30 s run takes ~50 of them, spread over all of its episodes
REF_EVERY_S = 0.5


class _Node:
    __slots__ = ("key", "pair")

    def __init__(self, key: int, pair: tuple) -> None:
        self.key = key
        self.pair = pair


def _reference_child(requests, replies) -> None:
    """Build the table, then answer each request byte with one probe time.

    A probe is one pass of random-order lookups through an object table:
    dict probes and attribute loads that miss the L2 cache, the
    simulator's own access pattern.  The child exits when its request
    stream closes.
    """
    rng = random.Random(12345)
    keys = [rng.getrandbits(48) for _ in range(REF_ENTRIES)]
    table = {k: _Node(k, (k, k + 1)) for k in keys}
    rng.shuffle(keys)
    order = keys[:REF_LOOKUPS]
    while requests.read(1):
        t0 = perf_counter()
        acc = 0
        for k in order:
            node = table[k]
            acc ^= node.pair[0] ^ node.key
        replies.write(f"{perf_counter() - t0!r} {acc}\n".encode())
        replies.flush()


class ReferenceProbe:
    """Host speed probe: a fixed pure-Python kernel in a child process.

    The child (this file run as a script) holds the reference table, so
    neither the table nor its build touch the benchmark process's heap,
    timings or peak RSS.  Use as a context manager: leaving it closes the
    child's stdin and waits for the child to exit.
    """

    def __init__(self) -> None:
        #: every probe's seconds, in order
        self.samples: List[float] = []

    def __enter__(self) -> "ReferenceProbe":
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        return self

    def sample(self) -> None:
        """Time one pass in the child and keep it."""
        self._child.stdin.write(b"p")
        self._child.stdin.flush()
        reply = self._child.stdout.readline().split()
        if len(reply) != 2 or reply[1] != b"0":
            raise RuntimeError("reference probe failed")
        self.samples.append(float(reply[0]))

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


@dataclass
class Timing:
    """Host seconds of one episode."""

    setup_s: float
    #: each simulated round of the measured phase
    round_s: List[float]
    #: from the end of the last round until the phase closed
    tail_s: float
    #: traced runs: the per-round probe, charged to the round it followed
    probe_s: float = 0.0

    @property
    def wall_s(self) -> float:
        """The measured phase, probe included."""
        return sum(self.round_s) + self.tail_s

    def scaled(self, factor: float) -> "Timing":
        """Every host time multiplied by ``factor``."""
        return Timing(
            self.setup_s * factor, [r * factor for r in self.round_s],
            self.tail_s * factor, self.probe_s * factor,
        )


class Tracer:
    """Stack-based self-time accounting per layer label."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: wrappers record only while enabled (the measured phase)
        self.enabled = False
        #: one [time spent in wrapped children] cell per open call
        self._stack: List[List[float]] = []

    def _timed(self, label: str) -> Callable[[Callable], Callable]:
        self_s, calls, stack = self.self_s, self.calls, self._stack

        def make(orig: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return orig(*args, **kwargs)
                cell = [0.0]
                stack.append(cell)
                t0 = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    self_s[label] += dt - cell[0]
                    calls[label] += 1
                    if stack:
                        stack[-1][0] += dt

            return wrapper

        return make

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        for module, name, attrs, label in TRACED:
            try:
                owner = importlib.import_module(module)
                if name is not None:
                    owner = getattr(owner, name)
            except (ImportError, AttributeError):
                continue  # a layer that no longer exists stays unwrapped
            for attr in attrs:
                _patch(owner, attr, self._timed(label), [])

    @contextmanager
    def paused(self) -> Iterator[None]:
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was


class RoundProbe:
    """Per-round kernel and traffic counters for the traced run."""

    def __init__(self) -> None:
        self.rounds = 0
        self.executed = 0
        self.replayed = 0
        self.pending_sum = 0
        self.delayed_max = 0
        self.outstanding_peak = 0

    def __call__(self, net) -> None:
        sched = net.scheduler
        self.rounds += 1
        self.executed += sched.executed_last_round
        self.replayed += sched.replayed_last_round
        self.pending_sum += sched.pending_messages()
        self.delayed_max = max(self.delayed_max, len(sched.future_pending()))
        peer = next(iter(net.peers.values()), None)
        collector = getattr(getattr(peer, "traffic", None), "collector", None)
        if collector is not None:
            self.outstanding_peak = max(self.outstanding_peak, collector.outstanding_count())


class Harness:
    """Setup bracket and round clock shared by every workload.

    With a ``tracer`` the harness enables it for the measured phase only,
    and runs ``probe(net)`` after every round with the tracer paused.
    With a ``reference`` it samples the host speed after the first round of
    each measured phase and after the first round that ends
    ``REF_EVERY_S`` past the last sample, and keeps the sampling time out
    of every timing.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        probe: Optional[Callable] = None,
        reference: Optional[ReferenceProbe] = None,
    ) -> None:
        #: host seconds of the last setup
        self.setup_s = 0.0
        #: round-end stamps of the open measured phase (None = closed)
        self.stamps: Optional[List[float]] = None
        #: the network built by the last setup
        self.net = None
        self.tracer = tracer
        self.probe = probe
        #: seconds the probe took in the open measured phase
        self.probe_s = 0.0
        self.reference = reference
        #: reference seconds of the open measured phase, kept off its clock
        self._hidden_s = 0.0
        self._next_sample = 0.0
        self._undo: list = []

    def install(self) -> None:
        from repro.core.network import ReChordNetwork
        from repro.scenarios import executor

        def clock(orig: Callable) -> Callable:
            def run_round(net, *args, **kwargs):
                orig(net, *args, **kwargs)
                stamps = self.stamps
                if stamps is not None:
                    now = perf_counter()
                    t = now - self._hidden_s
                    stamps.append(t)
                    if self.probe is not None:
                        with self.tracer.paused():
                            self.probe(net)
                        self.probe_s += perf_counter() - now
                    if self.reference is not None and t >= self._next_sample:
                        now = perf_counter()
                        self.reference.sample()
                        self._hidden_s += perf_counter() - now
                        self._next_sample = t + REF_EVERY_S

            return run_round

        def start_builder(orig: Callable) -> Callable:
            def build_start(*args, **kwargs):
                with self.setup():
                    self.net = orig(*args, **kwargs)
                return self.net

            return build_start

        # installed after the tracer, so the clock (and the probe it runs)
        # sits outside the traced run_round call
        _patch(ReChordNetwork, "run_round", clock, self._undo)
        # a scenario builds its start state inside run_scenario: bracket it
        _patch(executor, "_build_start", start_builder, self._undo)

    def uninstall(self) -> None:
        _unpatch(self._undo)

    @contextmanager
    def setup(self) -> Iterator[None]:
        """Time one start-state build, then open the measured phase."""
        self.stamps = None
        if self.tracer is not None:
            self.tracer.enabled = False
        t0 = perf_counter()
        yield
        t1 = perf_counter()
        self.setup_s = t1 - t0
        self.probe_s = 0.0
        self._hidden_s = 0.0
        self._next_sample = t1  # every episode samples after its first round
        self.stamps = [t1]
        if self.tracer is not None:
            self.tracer.enabled = True

    def close(self) -> Timing:
        """End the measured phase and return the episode's timing."""
        end = perf_counter() - self._hidden_s
        if self.tracer is not None:
            self.tracer.enabled = False
        stamps, self.stamps = self.stamps, None
        rounds = [b - a for a, b in zip(stamps, stamps[1:])]
        return Timing(self.setup_s, rounds, end - stamps[-1], self.probe_s)


if __name__ == "__main__":
    _reference_child(sys.stdin.buffer, sys.stdout.buffer)
