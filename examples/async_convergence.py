#!/usr/bin/env python
"""Fully asynchronous convergence (the Section 6 setting).

The convergence theorem makes no round assumptions: nodes act on their own
Poisson clocks, messages take arbitrary (here random) delays, and the
topology is any connected graph — a sparse ring in this example, the
farthest setting from the paper's fully connected simulations.  This
example runs the event-driven engine and prints the inter-node
disagreement as wall-clock (simulated) time advances, showing it fall
toward zero; it also checks the weight-conservation invariant over the
global pool (nodes + in-flight messages), which Section 6.1's proof is
built on.

Run:  python examples/async_convergence.py
"""

import numpy as np

from repro import GaussianMixtureScheme, disagreement
from repro.core import ClassifierNode, Quantization
from repro.network import PoissonScheduler, SimulationKernel, topology
from repro.protocols import ClassificationProtocol

N = 24
rng = np.random.default_rng(9)
values = np.vstack(
    [rng.normal([0, 0], 0.5, size=(N // 2, 2)), rng.normal([6, 6], 0.5, size=(N // 2, 2))]
)

scheme = GaussianMixtureScheme(seed=9)
quantization = Quantization()
nodes = [
    ClassifierNode(i, values[i], scheme, k=2, quantization=quantization)
    for i in range(N)
]
scheduler = PoissonScheduler(
    mean_interval=1.0,
    delay_range=(0.05, 3.0),  # messages may take 3x a send interval
)
engine = SimulationKernel(
    topology.ring(N),
    {i: ClassificationProtocol(nodes[i]) for i in range(N)},
    scheduler,
    seed=9,
)

print(f"{N} nodes on a ring, Poisson clocks, random delays up to 3.0\n")
print(f"{'sim time':>8}  {'events':>7}  {'in flight':>9}  {'disagreement':>12}")
for checkpoint in [10, 25, 50, 100, 200, 400, 800]:
    scheduler.run_until(engine, float(checkpoint))
    gap = disagreement(nodes, scheme)
    print(f"{scheduler.now:8.0f}  {engine.metrics.events:7d}  "
          f"{len(engine.in_flight_payloads()):9d}  {gap:12.3e}")

# Weight conservation over the global pool (Section 6.1's invariant):
pool_quanta = sum(node.total_quanta for node in nodes)
for payload in engine.in_flight_payloads():
    pool_quanta += sum(collection.quanta for collection in payload)
expected = N * quantization.unit
print(f"\nglobal pool weight: {pool_quanta} quanta (expected {expected}) — "
      f"{'conserved exactly' if pool_quanta == expected else 'VIOLATED'}")

print("\nnode 0's final classification:")
for collection in nodes[0].classification.sorted_by_weight():
    share = collection.quanta / nodes[0].total_quanta
    print(f"  {share:5.1%} of weight, mean = {np.round(collection.summary.mean, 2)}")
