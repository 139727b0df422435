"""A fixed reference task that gauges the box's speed during each measured phase.

On the shared 2-vCPU VM the benchmark was tuned on, the box's speed
moves by tens of percent within seconds and within minutes: the same
kernel_noisy run took 24 s in one quarter of an hour and 14-20 s in
the next, and 10-round windows of the arena's tail varied by 26%
(quartile distance over median).  No length of run averages that out.
So a measured phase runs one chunk of this task after every round,
outside the round's timing, and the end-to-end times are reported at
the reference speed::

    reported = wall time * REFERENCE_CHUNK_S / mean chunk time

The set-up time, made of single calls that cannot be interleaved, is
reported at the speed gauged over all the run's phases.

In those arena windows the chunk times followed the round times with a
correlation of 0.96, and the scaled windows varied by 6%.  The raw wall
times stay in each run's record.  The task uses no program code, so a
change to the program cannot move it.  It mixes interpreter work (dict
updates, as in the per-node kernel) with sorting, gathering and
searching arrays (as in the arena), about half each, on data allocated
once at import and small enough to leave the program's caches warm.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Mean chunk time on the VM the bounds were set on (2 vCPUs, x86, KVM).
REFERENCE_CHUNK_S = 0.01

_RNG = np.random.default_rng(0)
_KEYS = tuple(range(2000))
_TABLE = dict.fromkeys(_KEYS, 0)
_VALUES = _RNG.random(5000)
_ROUTE = _RNG.permutation(len(_VALUES))
_PROBES = _VALUES[:1000].copy()
_SORTED = np.empty_like(_VALUES)
_GATHERED = np.empty_like(_VALUES)
_PASSES = 25
_SORTS = 8


def chunk() -> float:
    """Run one chunk of the reference task; returns its wall time."""
    start = time.perf_counter()
    table = _TABLE
    for _ in range(_PASSES):
        for key in _KEYS:
            table[key] = (key * 7 + table[key]) % 13
    for _ in range(_SORTS):
        np.copyto(_SORTED, _VALUES)
        _SORTED.sort(kind="stable")
        np.take(_SORTED, _ROUTE, out=_GATHERED)
        _SORTED.searchsorted(_PROBES)
    return time.perf_counter() - start


def speed(times: List[float]) -> float:
    """The box's speed over ``times`` against the reference VM (above 1: faster)."""
    return REFERENCE_CHUNK_S / statistics.fmean(times)
