"""Experiment-level parity: identical figure outputs on the node and the oracle.

The acceptance bar for the node's packed receive pipeline is not only
unit-level equality but *experiment-level* byte parity: a figure run must
produce exactly the same result object as the same run with every
:class:`~repro.core.node.ClassifierNode` swapped for the test-side
Algorithm 1 oracle (``tests/oracle.py``), on both gossip engines.
Figure 4 exercises the full receive/partition/merge pipeline (GM scheme,
crashes, both protocols); Figure 1 is a purely local computation and pins
the trivial case.
"""

from __future__ import annotations

import pytest
from oracle import oracle_nodes

from repro.experiments.common import Scale
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig4 import run_fig4

SMOKE = Scale(name="smoke", n_nodes=40, max_rounds=12, deltas=(10.0,))


def _fig4(engine: str):
    scale = SMOKE.with_overrides(engine=engine)
    return run_fig4(scale, delta=10.0, rounds=10, seed=4)


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["rounds", "async"])
def test_fig4_output_identical_under_packed_toggle(engine):
    packed = _fig4(engine)
    with oracle_nodes():
        plain = _fig4(engine)
    # Fig4Result is tuples of floats: == here means bit-identical traces.
    assert packed == plain
    # Guard against a vacuous pass (e.g. all-zero error traces).
    assert any(error > 0 for error in packed.robust_no_crashes)


def test_fig1_output_identical_under_packed_toggle():
    packed = run_fig1()
    with oracle_nodes():
        plain = run_fig1()
    assert packed.new_value.tobytes() == plain.new_value.tobytes()
    assert packed.centroid_choice == plain.centroid_choice
    assert packed.gaussian_choice == plain.gaussian_choice
    assert packed.distance_to_a == plain.distance_to_a
    assert packed.distance_to_b == plain.distance_to_b
    assert packed.log_density_a == plain.log_density_a
    assert packed.log_density_b == plain.log_density_b
