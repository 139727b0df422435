"""Scheduler conformance: the paper's invariants hold on either schedule.

The kernel/scheduler split promises that the synchronous round schedule
(Section 5.3) and the Poisson asynchronous schedule (Section 6) are two
timings of the *same* algorithm.  These property tests pin that down:
for random seeds, gossip variants, crash plans and link outages, both
schedulers must preserve

- **weight conservation** — the total number of weight quanta in the
  global pool (live nodes plus in-flight messages) never changes except
  when a crash discards mass, and then it only decreases;
- **Lemma 2 monotonicity** — the per-axis maximal reference angle over
  the global pool is non-increasing along any execution.

Both invariants are stated over the pool of Section 6.1, so the
in-flight channel contents count — that is exactly what makes the
asynchronous schedule (where messages linger in channels across
observation points) a meaningful test and not a restatement of the
synchronous case.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.convergence import max_reference_angles, pool_collections
from repro.network.kernel import GOSSIP_VARIANTS
from repro.network.failures import ScheduledCrashes
from repro.network.links import WindowedOutage, cut_edges
from repro.network.schedulers import (
    ENGINES,
    PoissonScheduler,
    SynchronousRoundScheduler,
    make_scheduler,
)
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme

N = 8
UNITS = 6

# Each invariant is checked once per (engine, variant, seed, failure plan)
# draw; small networks and few examples keep the whole module in seconds
# while still crossing every scheduler/variant pair many times.
CONFORMANCE_SETTINGS = settings(max_examples=15, deadline=None)

engines = st.sampled_from(ENGINES)
variants = st.sampled_from(GOSSIP_VARIANTS)
seeds = st.integers(min_value=0, max_value=2**16)

# Crash at most half the network so the pool (and the angle maximum,
# which is undefined on an empty pool) always survives.
crash_plans = st.dictionaries(
    keys=st.integers(min_value=0, max_value=UNITS - 1),
    values=st.sets(st.integers(min_value=0, max_value=N - 1), max_size=2),
    max_size=2,
)

outage_windows = st.tuples(
    st.integers(min_value=0, max_value=UNITS - 1),
    st.integers(min_value=1, max_value=UNITS),
)


def _build(seed, engine, variant, failure_model=None, link_schedule=None):
    rng = np.random.default_rng(seed)
    values = np.vstack(
        [
            rng.normal([0.0, 0.0], 0.5, size=(N // 2, 2)),
            rng.normal([5.0, 5.0], 0.5, size=(N - N // 2, 2)),
        ]
    )
    return build_classification_network(
        values,
        CentroidScheme(),
        k=2,
        graph=complete(N),
        seed=seed,
        track_aux=True,
        variant=variant,
        failure_model=failure_model,
        link_schedule=link_schedule,
        engine=engine,
    )


def _pool(kernel, nodes):
    """The Section 6.1 global pool: live nodes plus channel contents."""
    live = [nodes[node_id] for node_id in kernel.live_nodes]
    in_flight = [
        collection
        for payload in kernel.in_flight_payloads()
        for collection in payload
    ]
    return pool_collections(live, in_flight)


def _total_quanta(kernel, nodes) -> int:
    return sum(collection.quanta for collection in _pool(kernel, nodes))


def _make_outage(window):
    start, length = window
    graph = complete(N)
    return WindowedOutage(cut_edges(graph, range(N // 2)), start=start, end=start + length)


class TestWeightConservation:
    @given(seed=seeds, engine=engines, variant=variants, window=outage_windows)
    @CONFORMANCE_SETTINGS
    def test_constant_without_crashes(self, seed, engine, variant, window):
        """No failures: the pooled quanta count is exactly invariant."""
        kernel, nodes = _build(
            seed, engine, variant, link_schedule=_make_outage(window)
        )
        initial = _total_quanta(kernel, nodes)
        for _ in range(UNITS):
            kernel.run(1)
            assert _total_quanta(kernel, nodes) == initial

    @given(
        seed=seeds,
        engine=engines,
        variant=variants,
        plan=crash_plans,
        window=outage_windows,
    )
    @CONFORMANCE_SETTINGS
    def test_monotone_under_crashes(self, seed, engine, variant, plan, window):
        """Crashes only ever remove quanta from the pool."""
        kernel, nodes = _build(
            seed,
            engine,
            variant,
            failure_model=ScheduledCrashes(plan),
            link_schedule=_make_outage(window),
        )
        previous = _total_quanta(kernel, nodes)
        for _ in range(UNITS):
            kernel.run(1)
            current = _total_quanta(kernel, nodes)
            assert current <= previous
            previous = current


class TestLemma2Monotonicity:
    @given(
        seed=seeds,
        engine=engines,
        variant=variants,
        plan=crash_plans,
        window=outage_windows,
    )
    @CONFORMANCE_SETTINGS
    def test_max_reference_angles_never_increase(
        self, seed, engine, variant, plan, window
    ):
        """Lemma 2's quantity is monotone on both schedules, even lossy ones."""
        kernel, nodes = _build(
            seed,
            engine,
            variant,
            failure_model=ScheduledCrashes(plan),
            link_schedule=_make_outage(window),
        )
        previous = max_reference_angles(_pool(kernel, nodes))
        for _ in range(UNITS):
            kernel.run(1)
            current = max_reference_angles(_pool(kernel, nodes))
            assert np.all(current <= previous + 1e-9)
            previous = current


class TestMakeScheduler:
    """The name-to-scheduler function behind every ``engine=`` knob."""

    @pytest.mark.parametrize("variant", GOSSIP_VARIANTS)
    def test_rounds_name_gives_the_round_scheduler(self, variant):
        scheduler = make_scheduler("rounds", variant, 2.5, (0.5, 4.0))
        assert type(scheduler) is SynchronousRoundScheduler
        assert scheduler.variant == variant
        assert scheduler.round_index == 0

    @pytest.mark.parametrize("variant", GOSSIP_VARIANTS)
    def test_async_name_gives_the_poisson_scheduler(self, variant):
        scheduler = make_scheduler("async", variant, 2.5, (0.5, 4.0))
        assert type(scheduler) is PoissonScheduler
        assert scheduler.variant == variant
        assert scheduler.mean_interval == 2.5
        assert scheduler.delay_range == (0.5, 4.0)
        assert scheduler.now == 0.0

    def test_every_name_is_served(self):
        assert ENGINES == ("rounds", "async")
        for name in ENGINES:
            assert make_scheduler(name).variant == "push"

    def test_unknown_name_names_the_choices(self):
        with pytest.raises(ValueError, match="ENGINES") as raised:
            make_scheduler("threads")
        for name in ENGINES:
            assert repr(name) in str(raised.value)

    def test_invalid_settings_are_refused(self):
        with pytest.raises(ValueError, match="variant"):
            make_scheduler("rounds", "flood")
        with pytest.raises(ValueError, match="mean_interval"):
            make_scheduler("async", mean_interval=0.0)
