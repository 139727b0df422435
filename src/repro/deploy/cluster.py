"""Local cluster orchestration: N real node processes, one verdict.

The runner behind ``python -m repro.deploy run``.  It is deliberately a
*thin operator*, not a coordinator: it spawns one OS process per node
(each a self-sufficient :func:`run_node` — workload regenerated locally,
own transport endpoint, own HTTP observer), then interacts with the
cluster exclusively through the per-node HTTP endpoints, exactly as an
external operator would:

1. wait for every ``/status`` endpoint to come up,
2. poll until every node reports structural quiescence,
3. read every ``/classification`` and check pairwise agreement (the
   distributed classification problem's success criterion, Definition 4),
4. optionally run the same workload through the in-memory simulation and
   check the deployed answer matches it within tolerance,
5. POST ``/shutdown`` everywhere and reap the processes.

Agreement is tolerance-based, not byte-based: different nodes merge the
same collections in different orders, and floating-point merge order
perturbs the low bits even when the classifications are semantically
identical.  (The byte-identity guarantees live one layer down, in the
simulation transport's parity gates.)
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.core.node import ClassifierNode
from repro.core.weights import Quantization
from repro.deploy.workloads import build_workload
from repro.network.membership import MembershipView, PeerInfo
from repro.network.process_transport import ProcessTransport
from repro.network.runtime import NodeRuntime, cluster_means
from repro.network.tcp_transport import AsyncioTCPTransport
from repro.network.transport import FrameTransport
from repro.network.webapi import NodeWebAPI

__all__ = ["NodeSpec", "run_node", "run_cluster", "classification_deviation"]

_LOCALHOST = "127.0.0.1"


@dataclass(frozen=True)
class NodeSpec:
    """Everything one node process needs; plain data, spawn-picklable."""

    node_id: int
    n_nodes: int
    workload: str
    seed: int
    transport: str  # "process" | "tcp"
    gossip_port: int = 0
    http_port: int = 0
    seeds: tuple[tuple[str, int], ...] = field(default_factory=tuple)
    host: str = _LOCALHOST
    gossip_interval: float = 0.05
    heartbeat_interval: float = 0.5
    failure_timeout: float = 5.0
    patience: int = 10
    duration: float = 120.0


def _build_transport(
    spec: NodeSpec, inboxes: Optional[dict[int, Any]]
) -> tuple[FrameTransport, MembershipView, list[tuple[str, int]]]:
    """One node's transport + membership bootstrap, per the selection matrix."""
    if spec.transport == "process":
        if inboxes is None:
            raise ValueError("process transport needs the parent's inbox map")
        transport: FrameTransport = ProcessTransport(spec.node_id, inboxes)
        # Pipes need no address discovery: membership starts complete
        # (PeerInfo ports double as node ids), and JOIN is unnecessary.
        membership = MembershipView(
            self_info=PeerInfo(spec.node_id, "process", spec.node_id),
            failure_timeout=spec.failure_timeout,
        )
        for node_id in range(spec.n_nodes):
            if node_id != spec.node_id:
                membership.add(PeerInfo(node_id, "process", node_id))
        return transport, membership, []
    if spec.transport == "tcp":
        tcp = AsyncioTCPTransport(spec.node_id, host=spec.host, port=spec.gossip_port)
        tcp.start()
        membership = MembershipView(
            self_info=PeerInfo(spec.node_id, spec.host, int(tcp.bound_port or 0)),
            failure_timeout=spec.failure_timeout,
        )
        return tcp, membership, list(spec.seeds)
    raise ValueError(f"unknown deployment transport {spec.transport!r}")


def run_node(spec: NodeSpec, inboxes: Optional[dict[int, Any]] = None) -> None:
    """One node process, start to finish (the spawn entry point).

    Regenerates the workload from ``(workload, n_nodes, seed)``, takes row
    ``node_id`` as its value, and gossips until shut down over HTTP (or
    until the ``duration`` safety net fires — a node must not outlive a
    crashed operator forever).
    """
    workload = build_workload(spec.workload, spec.n_nodes, spec.seed)
    node = ClassifierNode(
        node_id=spec.node_id,
        value=workload.values[spec.node_id],
        scheme=workload.scheme,
        k=workload.k,
        quantization=Quantization(),
    )
    transport, membership, seed_addresses = _build_transport(spec, inboxes)
    runtime = NodeRuntime(
        node,
        workload.codec,
        transport,
        membership,
        seed_addresses=seed_addresses,
        gossip_interval=spec.gossip_interval,
        heartbeat_interval=spec.heartbeat_interval,
        patience=spec.patience,
        rng=np.random.default_rng(spec.seed * 100_003 + spec.node_id),
    )
    web = NodeWebAPI(runtime, host=spec.host, port=spec.http_port)
    web.start()
    try:
        runtime.run(duration=spec.duration)
    finally:
        web.stop()
        transport.close()


# ----------------------------------------------------------------------
# Operator side
# ----------------------------------------------------------------------
def _free_ports(count: int) -> list[int]:
    """Reserve ephemeral ports by bind-and-release.

    There is a classic race between release and reuse; for a local
    single-operator cluster it is negligible, and the TCP gossip ports
    themselves avoid it entirely (nodes bind port 0 and JOIN with the
    port they actually got — only the HTTP ports, which the operator
    must know up front, use this).
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((_LOCALHOST, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _http_json(
    host: str, port: int, path: str, method: str = "GET", timeout: float = 2.0
) -> dict[str, Any]:
    request = urllib.request.Request(f"http://{host}:{port}{path}", method=method)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _try_http_json(host: str, port: int, path: str, **kwargs: Any) -> Optional[dict[str, Any]]:
    try:
        return _http_json(host, port, path, **kwargs)
    except (urllib.error.URLError, ConnectionError, TimeoutError, OSError, json.JSONDecodeError):
        return None


def classification_deviation(
    means_a: list[list[float]], means_b: list[list[float]]
) -> float:
    """Largest coordinate gap between two sorted cluster-mean lists.

    ``inf`` on a shape mismatch (different cluster counts are a
    disagreement, not an error).
    """
    a = np.asarray(means_a, dtype=float)
    b = np.asarray(means_b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _memory_reference(workload_name: str, n: int, seed: int, rounds: int) -> dict[str, Any]:
    """The same workload through the simulation kernel (in-memory transport)."""
    from repro.network import topology
    from repro.protocols.classification import build_classification_network

    workload = build_workload(workload_name, n, seed)
    kernel, nodes = build_classification_network(
        workload.values, workload.scheme, workload.k, topology.complete(n), seed=seed
    )
    executed = kernel.run(rounds)
    return {
        "engine": "rounds",
        "transport": "memory",
        "rounds": executed,
        "means": cluster_means(nodes[0]),
        "relative_weights": sorted(
            nodes[0].classification.relative_weights().tolist()
        ),
    }


def run_cluster(
    n_nodes: int = 3,
    transport: str = "tcp",
    workload: str = "fig1",
    seed: int = 7,
    timeout: float = 90.0,
    agreement_tol: float = 0.75,
    compare_memory: bool = False,
    reference_rounds: int = 30,
    reference_tol: float = 1.0,
    artifact: Optional[str] = None,
    gossip_interval: float = 0.05,
    heartbeat_interval: float = 0.5,
    patience: int = 10,
) -> dict[str, Any]:
    """Run an N-node local cluster to quiescence and judge the result.

    Returns a report dict with ``ok`` plus per-node evidence; writes the
    same report as a JSON artifact when ``artifact`` is given.  Raises
    nothing for a *failed* run (the CLI turns ``ok`` into the exit code);
    raises only for operator errors (bad workload name, bad transport,
    a network too large for the weight lattice).
    """
    if transport not in ("process", "tcp"):
        raise ValueError(f"deployment transport must be process or tcp, not {transport!r}")
    Quantization().check_population(n_nodes)  # the lattice every node uses
    build_workload(workload, n_nodes, seed)  # fail fast on a bad recipe

    context = multiprocessing.get_context("spawn")
    http_ports = _free_ports(n_nodes)
    gossip_ports = [0] * n_nodes
    inboxes: Optional[dict[int, Any]] = None
    seeds_by_node: list[tuple[tuple[str, int], ...]] = [() for _ in range(n_nodes)]
    if transport == "tcp":
        # Nodes bind port 0 and announce what they got, so only the
        # bootstrap seed (node 0) needs a pre-agreed gossip port.
        gossip_ports = [_free_ports(1)[0]] + [0] * (n_nodes - 1)
        seed_address = (_LOCALHOST, gossip_ports[0])
        seeds_by_node = [()] + [(seed_address,) for _ in range(n_nodes - 1)]
    else:
        inboxes = {node_id: context.Queue() for node_id in range(n_nodes)}

    specs = [
        NodeSpec(
            node_id=node_id,
            n_nodes=n_nodes,
            workload=workload,
            seed=seed,
            transport=transport,
            gossip_port=gossip_ports[node_id],
            http_port=http_ports[node_id],
            seeds=seeds_by_node[node_id],
            gossip_interval=gossip_interval,
            heartbeat_interval=heartbeat_interval,
            patience=patience,
            duration=timeout + 30.0,
        )
        for node_id in range(n_nodes)
    ]
    processes = [
        context.Process(target=run_node, args=(spec, inboxes), daemon=True)
        for spec in specs
    ]
    for process in processes:
        process.start()

    report: dict[str, Any] = {
        "config": {
            "n_nodes": n_nodes,
            "transport": transport,
            "workload": workload,
            "seed": seed,
            "agreement_tol": agreement_tol,
            "patience": patience,
        },
        "ok": False,
    }
    deadline = time.monotonic() + timeout
    try:
        quiescent = _await_quiescence(specs, deadline)
        report["quiescent"] = quiescent
        statuses = [
            _try_http_json(spec.host, spec.http_port, "/status") for spec in specs
        ]
        classifications = [
            _try_http_json(spec.host, spec.http_port, "/classification") for spec in specs
        ]
        metrics = [
            _try_http_json(spec.host, spec.http_port, "/metrics") for spec in specs
        ]
        peers = [_try_http_json(spec.host, spec.http_port, "/peers") for spec in specs]
        report["nodes"] = [
            {
                "status": statuses[i],
                "classification": classifications[i],
                "metrics": metrics[i],
                "peers": peers[i],
            }
            for i in range(n_nodes)
        ]
        reachable = all(c is not None for c in classifications)
        report["reachable"] = reachable

        max_deviation = float("inf")
        if reachable:
            mean_lists = [c["means"] for c in classifications]  # type: ignore[index]
            max_deviation = max(
                (
                    classification_deviation(mean_lists[i], mean_lists[j])
                    for i in range(n_nodes)
                    for j in range(i + 1, n_nodes)
                ),
                default=0.0,
            )
        report["agreement_max_deviation"] = max_deviation
        agree = reachable and max_deviation <= agreement_tol

        reference_ok = True
        if compare_memory and reachable:
            reference = _memory_reference(workload, n_nodes, seed, reference_rounds)
            deviations = [
                classification_deviation(c["means"], reference["means"])  # type: ignore[index]
                for c in classifications
            ]
            reference["max_deviation_vs_cluster"] = max(deviations)
            reference["tolerance"] = reference_tol
            report["reference"] = reference
            reference_ok = max(deviations) <= reference_tol

        report["ok"] = bool(quiescent and agree and reference_ok)
    finally:
        for spec in specs:
            _try_http_json(spec.host, spec.http_port, "/shutdown", method="POST")
        join_deadline = time.monotonic() + 10.0
        for process in processes:
            process.join(timeout=max(join_deadline - time.monotonic(), 0.1))
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)

    if artifact:
        path = Path(artifact)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_jsonable(report), indent=2) + "\n")
    return report


def _await_quiescence(specs: list[NodeSpec], deadline: float) -> bool:
    """Poll every /status until all nodes report quiescence (or timeout)."""
    while time.monotonic() < deadline:
        statuses = [
            _try_http_json(spec.host, spec.http_port, "/status") for spec in specs
        ]
        if all(status is not None and status.get("quiescent") for status in statuses):
            return True
        time.sleep(0.2)
    return False


def _jsonable(value: Any) -> Any:
    """Round-trip-safe copy (numpy scalars to floats, inf to string)."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.floating, float)):
        as_float = float(value)
        return as_float if np.isfinite(as_float) else repr(as_float)
    if isinstance(value, np.integer):
        return int(value)
    return value


def spec_as_dict(spec: NodeSpec) -> dict[str, Any]:
    """CLI convenience: a printable view of a node spec."""
    return asdict(spec)
