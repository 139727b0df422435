"""The benchmark's workloads: inputs from a seed, a measured phase, output checks.

Every workload is a closed batch run in one process that reaches a
stated outcome at a stated input size:

- ``arena_converge`` — :class:`repro.mega.engine.ArenaEngine`, GM with
  k=3, 20,000 nodes on the complete graph, each value on one of three
  exact centers.  Measured: the run to structural quiescence (patience
  3), then a fixed tail of rounds.
- ``shard2_converge`` — the same inputs on
  :class:`repro.mega.shard.ShardedArenaEngine` with 2 shards over
  shared-memory slabs.
- ``kernel_noisy`` — the per-node :class:`repro.network.kernel.SimulationKernel`
  from :func:`repro.protocols.classification.build_classification_network`,
  1,000 nodes, complete graph, GM k=3, the three centers plus unit
  Gaussian noise (the paper's configuration).  A fixed warm-up in
  set-up, then a fixed number of measured rounds.
- ``kernel_tail`` — the same kernel on the exact three-center data.  An
  unmeasured lead-in runs to quiescence in set-up; a fixed number of
  tail rounds is measured.

End-to-end metrics, reported by every workload, with both times at the
reference speed of :mod:`reference` (wall time scaled by the box's speed
gauged in the same run):

- ``setup_s`` — process start to the first measured round: the median
  import time of the run's process and of the fresh processes
  ``run.py`` starts only to import, then the median of the run's
  :data:`SETUPS` set-ups of input generation, graph and engine
  construction (worker spawn included) and any warm-up or lead-in.
- ``solve_s`` — the summed round times of the workload's measured
  phase, which ends at a fixed outcome: the run to quiescence plus the
  fixed tail (arena, shard2), the fixed measured rounds (kernel_noisy),
  the fixed tail rounds (kernel_tail); the median over the run's
  :data:`REPEATS` measured phases.
- ``peak_rss_mb`` — peak resident memory; parent plus workers on shard2.

The record keeps the raw wall times and the parts of ``solve_s``: the
time to quiescence and the tail rounds' median, highest percentile with
ten rounds beyond it, and count.  They are not gated metrics: raw wall
times on the 2-vCPU VM move with the box's speed by more than any usable
bound.

Round counts follow from ``--seconds`` through the fixed rates in
:data:`ROUNDS_PER_SECOND`, so two commits measured with the same
settings do the same work; at ``--seconds 8`` one run takes 20-30 s on
a 2-vCPU x86 VM.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import reference
from layers import fill_missing, install, timed_metrics
from tracing import ROOT, LayerTracer

#: The generator of ``python -m repro.mega --data centers``: three
#: well-separated, exactly representable centers, so merges of
#: same-center summaries are float-exact and the population byte-converges.
CENTERS = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
K = 3
PATIENCE = 3
#: Rounds allowed to reach quiescence before the check counts a failure
#: (20,000 nodes quiesce in 13-19 rounds, 1,000 kernel nodes in ~12).
ROUND_CAP = 60
#: kernel_noisy: warm-up rounds run in set-up, before the measured rounds.
WARMUP_ROUNDS = 4
#: kernel_noisy: largest allowed distance between a node's mean and the
#: sample mean of the generating cluster it stands for, after the run.
#: Merges conserve each cluster's quanta-weighted sum of means, so the
#: nodes end within about 1e-6 of the sample means; on one seed in 44
#: part of a point's weight joined another cluster early on, leaving
#: 0.0015.  One whole point of about 333 in the wrong cluster moves a
#: mean by about 0.034, which this catches.
NOISY_TOLERANCE = 0.01
#: Set-up repetitions per run (at least the most measured phases);
#: ``setup_s`` reports their median.  A single set-up's time spread by
#: 20-35% from run to run.
SETUPS = 3
SHARDS = 2

NODES = {
    "full": {"arena": 20000, "kernel": 1000},
    "tiny": {"arena": 60, "kernel": 30},
}

#: Measured rounds per ``--seconds`` in each fixed-count phase (at least
#: 12).  At ``--seconds 8`` an arena phase lasts about 11 s, a shard2
#: phase about 7 s, kernel_noisy's about 13 s and a kernel_tail phase
#: about 8 s on a 2-vCPU VM.  shard2 keeps the shortest tail: its tail
#: rounds are barrier latency with little compute, and their median moved
#: between 45 and 100 ms from run to run.
ROUNDS_PER_SECOND = {
    "arena_converge": 7.0,
    "shard2_converge": 1.0,
    "kernel_noisy": 6.0,
    "kernel_tail": 7.0,
}

#: Set-ups followed by a measured phase; the others only time set-up.
#: Two long phases rather than several short ones: on the 2-vCPU VM the
#: box's speed drifts over seconds, and a phase of 8 s or more averages
#: it.  shard2 measures three shorter phases: a stall of either vCPU
#: stalls its exchange barrier, so one phase in a run can run 50-70%
#: slower than the others, and the median of three drops it.
#: kernel_noisy measures once: its means need about 30 rounds from the
#: start to settle within NOISY_TOLERANCE, so its phase cannot be split.
REPEATS = {
    "arena_converge": 2,
    "shard2_converge": 3,
    "kernel_noisy": 1,
    "kernel_tail": 2,
}

WORKLOADS = list(ROUNDS_PER_SECOND)

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MiB",
}


def import_program() -> None:
    """Import the program modules every workload uses; counted in ``setup_s``."""
    import networkx  # noqa: F401

    import repro.core.serialization  # noqa: F401
    import repro.mega.engine  # noqa: F401
    import repro.mega.shard  # noqa: F401
    import repro.protocols.classification  # noqa: F401
    import repro.schemes.gm  # noqa: F401


def measured_rounds(workload: str, seconds: float) -> int:
    return max(12, int(round(seconds * ROUNDS_PER_SECOND[workload])))


@dataclass
class Inputs:
    values: np.ndarray
    labels: np.ndarray
    pairing_seed: int
    scheme_seed: int


def make_inputs(workload: str, seed: int, nodes: int) -> Inputs:
    """Node values, their generating cluster and the run's seeds, from ``seed``."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(CENTERS), size=nodes)
    values = CENTERS[labels]
    if workload == "kernel_noisy":
        values = values + rng.normal(size=values.shape)
    pairing_seed, scheme_seed = (int(x) for x in rng.integers(0, 2**31 - 1, size=2))
    return Inputs(values, labels, pairing_seed, scheme_seed)


@dataclass
class Output:
    """What the run computed, read off the engine after the measured phase."""

    counts: np.ndarray  # (n,) collections per node
    quanta: np.ndarray  # (n, k) weights, 0 past counts
    means: np.ndarray  # (n, k, d) collection means


@dataclass
class Measurement:
    solve_s: float
    round_s: List[float]
    detail: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Process readings
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _worker_pids() -> set:
    return {child.pid for child in multiprocessing.active_children()}


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _self_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _unit_quanta() -> int:
    from repro.core.weights import Quantization

    return Quantization().unit


def _wire_bytes(messages: int, rows: int) -> int:
    """Bytes on the wire for ``messages`` payloads carrying ``rows`` collections."""
    from repro.core.serialization import codec_for_scheme, payload_size_bytes
    from repro.schemes.gm import GaussianMixtureScheme

    codec = codec_for_scheme(GaussianMixtureScheme(), CENTERS.shape[1])
    header = payload_size_bytes(0, codec)
    per_row = payload_size_bytes(1, codec) - header
    return messages * header + rows * per_row


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: ``build`` is set-up, ``measure`` the measured phase."""

    name = ""
    converges = True

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale

    def build(self) -> Any:
        raise NotImplementedError

    def measure(self, run: Any, rounds: int, gauge: Optional[List[float]] = None) -> Measurement:
        """The measured phase; with ``gauge``, a reference chunk after each round."""
        raise NotImplementedError

    def observe(self, run: Any) -> Output:
        raise NotImplementedError

    def counters(self, run: Any, measurement: Measurement, tracer: LayerTracer) -> Dict[str, float]:
        """Per-layer counts read off the engine after the traced phase."""
        raise NotImplementedError

    def close(self, run: Any) -> None:
        pass

    def restarts(self, run: Any) -> Optional[int]:
        """Worker restarts in the last measured phase (None: no workers)."""
        return None

    def peak_rss_mb(self, run: Any) -> float:
        return self_peak_rss_mb()


def _scheme(seed: int) -> Any:
    from repro.schemes.gm import GaussianMixtureScheme

    return GaussianMixtureScheme(seed=seed)


def _timed_rounds(
    step: Callable[[], Any],
    rounds: int,
    gauge: Optional[List[float]],
    until: Callable[[], bool] = lambda: False,
) -> List[float]:
    """Time up to ``rounds`` calls of ``step``, stopping once ``until()`` holds.

    With ``gauge``, one untimed reference chunk follows each round and
    its time is appended there.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
        if gauge is not None:
            gauge.append(reference.chunk())
        if until():
            break
    return times


class ArenaConverge(Workload):
    name = "arena_converge"

    def build(self) -> Any:
        from repro.mega.engine import ArenaEngine

        self.inputs = make_inputs(self.name, self.seed, NODES[self.scale]["arena"])
        return ArenaEngine(
            self.inputs.values, _scheme(self.inputs.scheme_seed), K,
            seed=self.inputs.pairing_seed,
        )

    def measure(self, engine: Any, rounds: int, gauge: Optional[List[float]] = None) -> Measurement:
        # One round per call: the engine keeps its quiescence streak across
        # calls, so this is run(ROUND_CAP, stop_on_quiescence=True) with
        # room for the gauge between rounds.  Each tail round keeps the
        # probe, as a run would.
        def step() -> None:
            engine.run(1, stop_on_quiescence=True, quiescence_patience=PATIENCE)

        converge = _timed_rounds(
            step, ROUND_CAP, gauge, until=lambda: engine.quiescent_at is not None
        )
        # Read before the tail, which could still reach patience.
        converged_at = engine.round_index if engine.quiescent_at is not None else None
        tail = _timed_rounds(step, rounds, gauge)
        return Measurement(
            sum(converge) + sum(tail),
            tail,
            detail={"converge_s": sum(converge), "rounds_to_quiescence": converged_at},
        )

    def counters(self, engine: Any, measurement: Measurement, tracer: LayerTracer) -> Dict[str, float]:
        stats = engine.stats
        rows = tracer.layer("solver.receive").rows
        n = engine.arena.n
        return {
            **_solver_counters(stats),
            "arena.rounds_to_quiescence": measurement.detail["rounds_to_quiescence"] or 0,
            "wire.bytes_per_node_round": _wire_bytes(stats.messages, rows) / (n * stats.rounds),
            "measured.rounds": stats.rounds,
        }

    def observe(self, engine: Any) -> Output:
        return _arena_output(engine.arena)


def _solver_counters(stats: Any) -> Dict[str, float]:
    receivers = stats.receivers
    return {
        "solver.receivers": receivers,
        "solver.full_solves": stats.full_solves,
        "solver.memo_hits": stats.memo_round_hits + stats.memo_lru_hits,
        "solver.noop_hits": stats.noop_hits,
        "solver.noop_sweep_hits": stats.noop_sweep_hits,
        "solver.fastpath_hits": stats.fastpath_hits,
        "solver.dedup_ratio": 1.0 - stats.full_solves / receivers if receivers else 0.0,
    }


def _arena_output(arena: Any) -> Output:
    return Output(
        counts=arena.counts.copy(),
        quanta=arena.quanta.copy(),
        means=arena.columns["mean"].copy(),
    )


class Shard2Converge(ArenaConverge):
    name = "shard2_converge"

    def build(self) -> Any:
        from repro.mega.shard import ShardedArenaEngine

        cpus = len(os.sched_getaffinity(0))
        if cpus < SHARDS:
            raise RuntimeError(
                f"{self.name} runs {SHARDS} worker processes but only {cpus} CPUs are usable"
            )
        self.inputs = make_inputs(self.name, self.seed, NODES[self.scale]["arena"])
        engine = ShardedArenaEngine(
            self.inputs.values, _scheme(self.inputs.scheme_seed), K,
            shards=SHARDS, seed=self.inputs.pairing_seed, use_shm=True,
        )
        self._arena = None
        return engine

    def measure(self, engine: Any, rounds: int, gauge: Optional[List[float]] = None) -> Measurement:
        pids = _worker_pids()
        cpu_start = sum(_proc_cpu_seconds(pid) for pid in pids)
        self_cpu_start = _self_cpu_seconds()
        phases_start = dict(engine.phase_seconds)
        measurement = super().measure(engine, rounds, gauge)
        live = _worker_pids()
        worker_cpu = sum(_proc_cpu_seconds(pid) for pid in live) - cpu_start
        self._restarts = len(live - pids)
        self._worker_rss = sum(_proc_peak_rss_mb(pid) for pid in live)
        measurement.detail.update(
            worker_cpu_s=worker_cpu,
            parent_cpu_s=_self_cpu_seconds() - self_cpu_start,
            phases={
                name: engine.phase_seconds[name] - phases_start[name]
                for name in engine.phase_seconds
            },
        )
        return measurement

    def counters(self, engine: Any, measurement: Measurement, tracer: LayerTracer) -> Dict[str, float]:
        self._collect(engine)  # finishes the workers; their final stats come back
        stats = engine.stats
        per_shard = engine.shard_solver_stats()
        receivers = [entry["receivers"] for entry in per_shard]
        mean = sum(receivers) / len(receivers)
        phases = measurement.detail["phases"]
        parent_self = (
            tracer.layer("exchange.run").self_time
            + tracer.layer("exchange.round").self_time
            - sum(phases.values())
        )
        return {
            **_solver_counters(stats),
            "shard.full_solves": stats.full_solves,
            "shard.imbalance": max(receivers) / mean if mean else 1.0,
            "shard.worker_cpu_s": measurement.detail["worker_cpu_s"],
            "shard.restarts": self._restarts,
            "exchange.split_s": phases["split"],
            "exchange.route_s": phases["route"],
            "exchange.deliver_s": phases["deliver"],
            "exchange.parent_self_s": parent_self,
            "arena.rounds_to_quiescence": measurement.detail["rounds_to_quiescence"] or 0,
            "process.cpu_s": measurement.detail["parent_cpu_s"] + measurement.detail["worker_cpu_s"],
            "measured.rounds": engine.round_index,
        }

    def _collect(self, engine: Any) -> Any:
        if self._arena is None:
            self._arena = engine.collect()
        return self._arena

    def observe(self, engine: Any) -> Output:
        return _arena_output(self._collect(engine))

    def restarts(self, engine: Any) -> int:
        return self._restarts

    def peak_rss_mb(self, engine: Any) -> float:
        return self_peak_rss_mb() + self._worker_rss

    def close(self, engine: Any) -> None:
        engine.close()


class KernelNoisy(Workload):
    name = "kernel_noisy"
    converges = False

    def build(self) -> Any:
        import networkx as nx

        from repro.protocols.classification import build_classification_network

        nodes = NODES[self.scale]["kernel"]
        self.inputs = make_inputs(self.name, self.seed, nodes)
        kernel, node_list = build_classification_network(
            self.inputs.values,
            _scheme(self.inputs.scheme_seed),
            K,
            nx.complete_graph(nodes),
            seed=self.inputs.pairing_seed,
            stop_on_quiescence=self.converges,
            quiescence_patience=PATIENCE,
        )
        self.lead_in(kernel)
        return kernel, node_list

    def lead_in(self, kernel: Any) -> None:
        kernel.run(WARMUP_ROUNDS)

    def measure(self, run: Any, rounds: int, gauge: Optional[List[float]] = None) -> Measurement:
        kernel, node_list = run
        self._counts_start = {
            "messages": kernel.metrics.messages_sent,
            "items": kernel.metrics.payload_items_sent,
            "deliveries": kernel.metrics.messages_delivered,
            **_node_sums(node_list),
        }
        times = _timed_rounds(lambda: kernel.run(1), rounds, gauge)
        return Measurement(sum(times), times)

    def counters(self, run: Any, measurement: Measurement, tracer: LayerTracer) -> Dict[str, float]:
        kernel, node_list = run
        metrics = kernel.metrics
        start = self._counts_start
        messages = metrics.messages_sent - start["messages"]
        items = metrics.payload_items_sent - start["items"]
        node_sums = _node_sums(node_list)
        memo = node_sums["cache_memo_hits"] - start["cache_memo_hits"]
        noop = node_sums["cache_noop_hits"] - start["cache_noop_hits"]
        misses = node_sums["cache_misses"] - start["cache_misses"]
        rounds = len(measurement.round_s)
        counters = {
            "kernel.messages": messages,
            "kernel.deliveries": metrics.messages_delivered - start["deliveries"],
            "node.cache_memo_hits": memo,
            "node.cache_noop_hits": noop,
            "node.cache_misses": misses,
            "node.fastpath_hits": node_sums["fastpath_hits"] - start["fastpath_hits"],
            "node.hit_ratio": (memo + noop) / (memo + noop + misses) if memo + noop + misses else 0.0,
            "wire.bytes_per_node_round": _wire_bytes(messages, items) / (len(node_list) * rounds),
            "measured.rounds": rounds,
        }
        if measurement.detail.get("rounds_to_quiescence"):
            counters["kernel.rounds_to_quiescence"] = measurement.detail["rounds_to_quiescence"]
        return counters

    def observe(self, run: Any) -> Output:
        _, node_list = run
        n = len(node_list)
        counts = np.zeros(n, dtype=np.int64)
        quanta = np.zeros((n, K), dtype=np.int64)
        means = np.zeros((n, K, CENTERS.shape[1]))
        for index, node in enumerate(node_list):
            collections = node.classification.collections
            counts[index] = len(collections)
            for slot, collection in enumerate(collections[:K]):
                quanta[index, slot] = collection.quanta
                means[index, slot] = collection.summary.mean
        return Output(counts, quanta, means)


def _node_sums(node_list: List[Any]) -> Dict[str, int]:
    names = ("cache_memo_hits", "cache_noop_hits", "cache_misses", "fastpath_hits")
    sums = dict.fromkeys(names, 0)
    for node in node_list:
        stats = node.stats
        for name in names:
            sums[name] += getattr(stats, name)
    return sums


class KernelTail(KernelNoisy):
    name = "kernel_tail"
    converges = True

    def lead_in(self, kernel: Any) -> None:
        kernel.run(ROUND_CAP)
        # Taken before any tail round, which could still reach patience.
        self._quiesced_at = kernel.quiescent_at

    def measure(self, run: Any, rounds: int, gauge: Optional[List[float]] = None) -> Measurement:
        measurement = super().measure(run, rounds, gauge)
        measurement.detail["rounds_to_quiescence"] = self._quiesced_at
        return measurement


REGISTRY = {
    workload.name: workload
    for workload in (ArenaConverge, Shard2Converge, KernelNoisy, KernelTail)
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, count: int = 1, failures: Optional[int] = None) -> None:
        self.attempted += count
        bad = (0 if ok else count) if failures is None else failures
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad} of {count} failed")


def check_output(
    workload: Workload, run: Any, measurement: Measurement, output: Output, result: CheckResult
) -> Dict[str, Any]:
    """Count the run's checked operations; returns figures for the record."""
    inputs = workload.inputs
    n = len(inputs.values)
    total = int(output.quanta.sum())
    result.record(total == n * _unit_quanta(), "weight conservation (sum quanta = n*unit)")
    present = sorted(set(inputs.labels.tolist()))
    held = output.means[:, : len(present)]
    right_count = output.counts == len(present)
    figures: Dict[str, Any] = {}
    if workload.converges:
        quiesced = measurement.detail["rounds_to_quiescence"] is not None
        result.record(quiesced, f"quiescence within {ROUND_CAP} rounds")
        expected = CENTERS[present]
        match = (held[:, :, None, :] == expected[None, None, :, :]).all(axis=-1)
        ok = right_count & match.any(axis=2).all(axis=1) & match.any(axis=1).all(axis=1)
        result.record(bool(ok.all()), "node holds exactly the generating centers", n, int(n - ok.sum()))
    else:
        expected = np.stack([inputs.values[inputs.labels == c].mean(axis=0) for c in present])
        distance = np.linalg.norm(held[:, :, None, :] - expected[None, None, :, :], axis=-1)
        ok = (
            right_count
            & (distance.min(axis=2) <= NOISY_TOLERANCE).all(axis=1)
            & (distance.min(axis=1) <= NOISY_TOLERANCE).all(axis=1)
        )
        result.record(
            bool(ok.all()),
            f"node means within {NOISY_TOLERANCE} of the cluster sample means",
            n,
            int(n - ok.sum()),
        )
        figures["max_mean_error"] = float(distance.min(axis=2).max())
    restarts = workload.restarts(run)
    if restarts is not None:
        result.record(restarts == 0, "zero worker restarts")
    return figures


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _quantiles(times: List[float]) -> Dict[str, Any]:
    """Median and the highest percentile with at least ten rounds beyond it."""
    ordered = sorted(times)
    summary: Dict[str, Any] = {"count": len(ordered), "median_ms": statistics.median(ordered) * 1e3}
    if len(ordered) > 10:
        index = len(ordered) - 11
        summary[f"p{100 * (index + 1) // len(ordered)}_ms"] = ordered[index] * 1e3
    return summary


def run_measured(
    name: str,
    seed: int,
    seconds: float,
    imports_s: float,
    scale: str = "full",
    plant_fault: bool = False,
) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics plus output checks.

    Builds the workload :data:`SETUPS` times and measures after the
    last :data:`REPEATS` builds, with a reference chunk after every
    measured round.  ``solve_s`` is the median over the phases of each
    phase's wall time at the reference speed gauged during it;
    ``setup_s``, whose parts are single calls, is scaled by the speed
    gauged over all the run's phases.  The record keeps the raw wall
    times and summarises the phases' steady-phase rounds.
    With ``plant_fault``, one quantum is removed from node 0 of the last
    phase's output before it is checked.
    """
    workload = REGISTRY[name](seed, scale)
    rounds = measured_rounds(name, seconds)
    checks = CheckResult()
    setups: List[float] = []
    solves: List[float] = []
    speeds: List[float] = []
    chunks: List[float] = []
    round_s: List[float] = []
    phases: List[Dict[str, Any]] = []
    peak = 0.0
    for index in range(SETUPS):
        start = time.perf_counter()
        run = workload.build()
        setups.append(time.perf_counter() - start)
        try:
            if index >= SETUPS - REPEATS[name]:
                gauge: List[float] = []
                measurement = workload.measure(run, rounds, gauge)
                solves.append(measurement.solve_s)
                speeds.append(reference.speed(gauge))
                chunks.extend(gauge)
                round_s.extend(measurement.round_s)
                output = workload.observe(run)
                peak = max(peak, workload.peak_rss_mb(run))
                if plant_fault and index == SETUPS - 1:
                    output.quanta[0, 0] -= 1
                figures = check_output(workload, run, measurement, output, checks)
                phases.append({**measurement.detail, **figures})
        finally:
            workload.close(run)
        del run
        gc.collect()
    run_speed = reference.speed(chunks)
    metrics = {
        "setup_s": (imports_s + statistics.median(setups)) * run_speed,
        "solve_s": statistics.median(solve * speed for solve, speed in zip(solves, speeds)),
        "peak_rss_mb": peak,
    }
    detail = {
        "imports_s": imports_s,
        "setups_s": setups,
        "solves_s": solves,
        "speeds": speeds,
        "run_speed": run_speed,
        "rounds": _quantiles(round_s),
        "phases": phases,
    }
    return {"metrics": metrics, "checks": checks, "detail": detail}


def _untraced_pass(
    workload_cls: type, seed: int, scale: str, rounds: int, checks: CheckResult
) -> float:
    """One untraced build-measure-check; returns the measured wall time."""
    workload = workload_cls(seed, scale)
    run = workload.build()
    try:
        start = time.perf_counter()
        measurement = workload.measure(run, rounds)
        wall = time.perf_counter() - start
        check_output(workload, run, measurement, workload.observe(run), checks)
    finally:
        workload.close(run)
    del run
    gc.collect()
    return wall


def run_traced(name: str, seed: int, seconds: float, scale: str = "full") -> Dict[str, Any]:
    """Two untraced passes, then the same run with layer wrappers installed.

    All passes use the same inputs and do the same work.  The first pass
    only warms the process (lazy imports, allocator growth), so the
    traced pass is compared with the second
    (``trace.overhead_frac`` = traced wall / untraced wall - 1).
    """
    workload_cls = REGISTRY[name]
    rounds = measured_rounds(name, seconds)
    checks = CheckResult()
    warmup_wall = _untraced_pass(workload_cls, seed, scale, rounds, checks)
    untraced_wall = _untraced_pass(workload_cls, seed, scale, rounds, checks)

    reference_solves = None
    if name == "shard2_converge":
        # Full solves of the single-process engine at the same seed and
        # round count: the shard-private caches' duplicate-solve tax.
        reference = ArenaConverge(seed, scale)
        engine = reference.build()
        reference.measure(engine, rounds)
        reference_solves = engine.stats.full_solves
        del engine
        gc.collect()

    workload = workload_cls(seed, scale)
    run = workload.build()
    tracer = LayerTracer()
    try:
        cpu_start = _self_cpu_seconds()
        install(tracer)
        try:
            measurement = tracer.span(ROOT, lambda: workload.measure(run, rounds))
        finally:
            tracer.uninstall()
        metrics = timed_metrics(tracer)
        metrics["process.cpu_s"] = _self_cpu_seconds() - cpu_start
        metrics.update(workload.counters(run, measurement, tracer))
        check_output(workload, run, measurement, workload.observe(run), checks)
    finally:
        workload.close(run)
    if reference_solves is not None:
        metrics["shard.dup_solves"] = metrics["shard.full_solves"] - reference_solves
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced_wall - 1.0
    detail = {
        "warmup_wall_s": warmup_wall,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": metrics["trace.wall_s"],
        "self_time_sum_s": tracer.self_time_sum(),
        "layers": tracer.table(),
        **({"arena_full_solves": reference_solves} if reference_solves is not None else {}),
    }
    return {"metrics": fill_missing(metrics), "checks": checks, "detail": detail}
