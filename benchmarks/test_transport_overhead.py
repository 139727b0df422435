"""Transport overhead: the kernel's own transport must be free.

The kernel runs its transmit/deliver pipeline through the
``InMemoryTransport`` it builds for itself, and that indirection must
cost nothing: the 100-node GM workload recorded *before* the pipeline
moved out of the kernel
(``benchmarks/results/BENCH_transport_baseline.json``, same machine,
best of 7) must still run within 2% of it.  That gate is asserted
here, and the result is recorded to
``benchmarks/results/BENCH_transport.json`` together with the price of
going on the wire: the same number of gossip frames the in-memory run
delivered, pushed through a real loopback-TCP transport pair
(length-prefixed framing, CRC verification, socket round trip), for an
in-memory vs TCP wall-clock comparison at matched message volume.

Run with::

    python -m pytest benchmarks/test_transport_overhead.py -q
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.core.serialization import codec_for_scheme, encode_payload
from repro.data.generators import CENTERS, make_dataset
from repro.network.frames import DATA, encode_frame
from repro.network.membership import PeerInfo
from repro.network.tcp_transport import AsyncioTCPTransport
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.gm import GaussianMixtureScheme

BASELINE_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_transport_baseline.json"
)
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_transport.json"

N = 100
K = 3
ROUNDS = 30
SEED = 11
REPEATS = 7
OVERHEAD_GATE = 1.02  # extraction may add at most 2%


def _values() -> np.ndarray:
    return make_dataset("centers", N, SEED)


def _run_in_memory() -> tuple[float, int]:
    """One timed run; returns (seconds, messages delivered)."""
    kernel, _ = build_classification_network(
        _values(),
        GaussianMixtureScheme(seed=0),
        k=K,
        graph=complete(N),
        seed=SEED,
    )
    start = time.perf_counter()
    kernel.run(ROUNDS)
    elapsed = time.perf_counter() - start
    return elapsed, kernel.metrics.messages_delivered


def _run_loopback_tcp(frame_count: int) -> float:
    """Push ``frame_count`` representative DATA frames through a real
    loopback-TCP transport pair and wait for the last delivery."""
    scheme = GaussianMixtureScheme(seed=0)
    codec = codec_for_scheme(scheme, CENTERS.shape[1])
    # A representative gossip payload: K full-covariance collections.
    node = build_classification_network(
        _values(), scheme, k=K, graph=complete(N), seed=SEED
    )[1][0]
    payload = node.make_message()
    frame = encode_frame(DATA, 0, encode_payload(payload, codec))

    sender = AsyncioTCPTransport(0)
    receiver = AsyncioTCPTransport(1)
    sender.start()
    receiver.start()
    try:
        peer = PeerInfo(1, "127.0.0.1", receiver.bound_port)
        start = time.perf_counter()
        for _ in range(frame_count):
            assert sender.send_frame(peer, frame)
        received = 0
        while received < frame_count:
            if receiver.poll(timeout=5.0) is None:
                raise AssertionError(
                    f"TCP stalled at {received}/{frame_count} frames"
                )
            received += 1
        return time.perf_counter() - start
    finally:
        sender.close()
        receiver.close()


def test_in_memory_extraction_stays_within_two_percent():
    baseline = json.loads(BASELINE_PATH.read_text())
    baseline_best = baseline["pre_refactor_seconds_best"]

    timings = []
    messages = 0
    for _ in range(REPEATS):
        elapsed, messages = _run_in_memory()
        timings.append(elapsed)
    best = min(timings)

    tcp_seconds = _run_loopback_tcp(messages)

    record = {
        "workload": dict(baseline["workload"]),
        "pre_refactor_seconds_best": baseline_best,
        "post_refactor_seconds_best": best,
        "post_refactor_seconds_all": timings,
        "overhead_ratio": best / baseline_best,
        "overhead_gate": OVERHEAD_GATE,
        "frames_delivered": messages,
        "loopback_tcp_seconds": tcp_seconds,
        "tcp_vs_memory_ratio": tcp_seconds / best,
        "repeats": REPEATS,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    assert best <= baseline_best * OVERHEAD_GATE, (
        f"InMemoryTransport extraction costs {best / baseline_best:.3f}x "
        f"the pre-refactor kernel (gate {OVERHEAD_GATE}x); "
        f"see {RESULTS_PATH}"
    )
