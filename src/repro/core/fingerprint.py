"""Content-addressed classification fingerprints and the merge cache.

Gossip runs spend their tails recomputing work whose inputs the run has
already seen: past the convergence knee, almost every receipt pools
byte-identical summaries and produces byte-identical output.  This module
makes that redundancy *addressable*:

- :func:`digest_arrays` hashes a summary's packed arrays into a stable
  16-byte content digest (schemes expose it via
  :meth:`~repro.core.scheme.SummaryScheme.summary_digest`);
- :func:`combine_digests` / :func:`state_fingerprint_of` fold per-collection
  digests order-insensitively into one classification fingerprint —
  summary-level (what classes a node holds) or state-level (classes plus
  quanta);
- :class:`MergeCache` is the run-scoped cache shared by every node of a
  :class:`~repro.network.kernel.SimulationKernel`.  It holds what the
  certified no-op receive needs and nothing else:

  1. **Identity certificates** — per location-set proofs that a receipt
     whose incoming digests are a subset of the local ones is a *no-op*
     up to quanta bookkeeping.  The certificate pins the weight-independent
     geometry (pairwise-distinct locations, maximin seed orders, E-step
     score margins).  See ``docs/performance.md`` for the soundness
     argument.
  2. **No-op plans** — :mod:`repro.core.receive`'s per-local-block plans,
     keyed by ``k`` and the block's ordered row tokens; the
     weight-dependent remainder is checked per receipt.

There is no receive memo: a receive is a pure function of its pooled
rows *and their quanta*, and every round halves and re-pools the quanta,
so an exact key almost never comes back in a later round (see
``docs/performance.md``, "No cross-round receive memo").

The cache is only consulted when the scheme declares
``supports_fingerprints``; it defaults on (the ``REPRO_MERGE_CACHE``
environment toggle turns it off, and the cache-off run is the reference
the certified no-op is checked against).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.scheme import SummaryScheme

__all__ = [
    "digest_arrays",
    "digest_array_rows",
    "combine_digests",
    "state_fingerprint_of",
    "IdentityCertificate",
    "MISSING",
    "MergeCache",
    "merge_cache_default",
]

#: Digest width in bytes; 128 bits makes accidental collisions across a
#: run's summary population (thousands of distinct summaries at most)
#: astronomically unlikely.
DIGEST_SIZE = 16

#: Relative / absolute slack subtracted from certified score margins to
#: absorb the float dust between the certificate's exact per-location
#: moments and the EM M-step's segment-sum moments (relative error
#: ~1e-12; the slack is four orders of magnitude more conservative).
_MARGIN_SLACK_REL = 1e-6
_MARGIN_SLACK_ABS = 1e-9

#: Distinct local blocks a run keeps no-op plans for before it drops them
#: all (pre-convergence token churn guard).
_MAX_PLANS = 65536

#: What :meth:`MergeCache.lookup` returns for a block no plan was stored
#: for; a stored ``None`` means the block is never a no-op.
MISSING: Any = object()


def merge_cache_default() -> bool:
    """Whether networks build a merge cache by default.

    On unless ``REPRO_MERGE_CACHE`` is set to ``0``/``false``/``no``/``off``.
    The determinism gate flips this to pin cache-on traces against the
    cache-off reference.
    """
    return os.environ.get("REPRO_MERGE_CACHE", "1").strip().lower() not in {
        "0",
        "false",
        "no",
        "off",
    }


#: Shape-prefix bytes are identical for every row of a column, so the
#: tuple-repr encoding is interned rather than rebuilt per digest call.
_SHAPE_PREFIXES: dict[tuple, bytes] = {}


def digest_arrays(*arrays: np.ndarray) -> bytes:
    """Stable content digest of one or more float arrays.

    Hashes shape and raw bytes, so two summaries collide only when their
    packed representations are byte-identical — exactly the equivalence
    the merge cache needs (byte-equal inputs give byte-equal outputs).
    """
    hasher = blake2b(digest_size=DIGEST_SIZE)
    for array in arrays:
        contiguous = np.ascontiguousarray(array, dtype=float)
        shape = contiguous.shape
        prefix = _SHAPE_PREFIXES.get(shape)
        if prefix is None:
            prefix = _SHAPE_PREFIXES.setdefault(shape, repr(shape).encode())
        hasher.update(prefix)
        hasher.update(contiguous.tobytes())
    return hasher.digest()


def digest_array_rows(*columns: np.ndarray) -> list[bytes]:
    """:func:`digest_arrays` of row ``i`` of every column, for each row ``i``:
    every row's bytes, shape prefixes included, laid out in one table."""
    count = len(columns[0])
    parts = []
    for column in columns:
        prefix = np.frombuffer(repr(column.shape[1:] or (1,)).encode(), dtype=np.uint8)
        rows = np.ascontiguousarray(column, dtype=float).reshape(count, column[:1].size)
        parts += [np.broadcast_to(prefix, (count, len(prefix))), rows.view(np.uint8)]
    table = np.concatenate(parts, axis=1)
    flat, width = memoryview(table.reshape(-1)), table.shape[1]
    return [
        blake2b(flat[at : at + width], digest_size=DIGEST_SIZE).digest()
        for at in range(0, count * width, width)
    ]


def combine_digests(digests: Iterable[bytes]) -> bytes:
    """Order-insensitive fold of per-collection digests (sorted, not XORed,
    so duplicate digests cannot cancel)."""
    hasher = blake2b(digest_size=DIGEST_SIZE)
    for digest in sorted(digests):
        hasher.update(digest)
    return hasher.digest()


def state_fingerprint_of(pairs: Iterable[Tuple[bytes, int]]) -> bytes:
    """Order-insensitive fingerprint of ``(summary digest, quanta)`` pairs."""
    hasher = blake2b(digest_size=DIGEST_SIZE)
    for digest, quanta in sorted(pairs):
        hasher.update(digest)
        hasher.update(int(quanta).to_bytes(16, "big"))
    return hasher.digest()


class IdentityCertificate:
    """Weight-independent proof obligations for one set of locations.

    A *location* is a distinct summary byte-pattern.  Built once per
    distinct local digest set and cached on the :class:`MergeCache`, the
    certificate answers, for any receipt whose pooled multiset lives on
    these locations: would the scheme's partition group the pooled
    components exactly by location, and in which output order?

    For EM-style schemes it stores the pairwise E-step score margins
    ``margins[a][b] = score(a under a) - score(a under b)`` at uniform
    group weights (the geometry; mixing-weight terms cancel) plus the
    location means for the maximin seed walk.  For greedy-style schemes
    pairwise distinctness is the whole geometric content — the output
    order is first-occurrence, checked by the caller.
    """

    __slots__ = (
        "locations",
        "index_of",
        "style",
        "valid",
        "_means",
        "_margins",
        "_slack",
        "_seed_orders",
        "_threshold_matrix",
    )

    def __init__(
        self,
        locations: Tuple[bytes, ...],
        style: str,
        valid: bool,
        means: Optional[np.ndarray] = None,
        margins: Optional[np.ndarray] = None,
    ) -> None:
        self.locations = locations
        self.index_of = {digest: i for i, digest in enumerate(locations)}
        self.style = style
        self.valid = valid
        self._means = means
        self._margins: Optional[list[list[float]]] = None
        self._slack: Optional[list[list[float]]] = None
        if margins is not None:
            self._margins = margins.tolist()
            self._slack = (
                _MARGIN_SLACK_REL * (1.0 + np.abs(margins)) + _MARGIN_SLACK_ABS
            ).tolist()
        self._seed_orders: Dict[
            Tuple[int, Tuple[int, ...]], Optional[Tuple[int, ...]]
        ] = {}
        self._threshold_matrix: Optional[np.ndarray] = None

    def seed_order(
        self, first: int, ranks: Tuple[int, ...]
    ) -> Optional[Tuple[int, ...]]:
        """Maximin seed order starting from location ``first``.

        Replicates :func:`repro.ml.reduction._maximin_seeds` on the
        distinct location means.  Because every pooled component is
        byte-identical to its location, the per-row squared distances the
        real walk computes coincide bitwise with the per-location ones
        here.  The real walk breaks cross-location argmax ties by lowest
        *pooled* index; under the certified preconditions (local digests
        distinct, incoming a subset of local, locals pooled first) the
        lowest pooled index of a location is its position in the local
        collection order, which the caller passes as ``ranks[j]`` for
        location ``j`` — so ties resolve to the tied location with the
        smallest rank, exactly as ``np.argmax`` would.
        """
        key = (first, ranks)
        if key in self._seed_orders:
            return self._seed_orders[key]
        means = self._means
        assert means is not None
        m = means.shape[0]
        chosen = [first]
        closest_sq = np.sum((means - means[first]) ** 2, axis=1)
        order: Optional[Tuple[int, ...]] = None
        while len(chosen) < m:
            top = closest_sq.max()
            if top <= 0.0:  # pragma: no cover - distances certified positive
                break
            candidate = min(
                (int(i) for i in np.flatnonzero(closest_sq == top)),
                key=lambda i: ranks[i],
            )
            chosen.append(candidate)
            closest_sq = np.minimum(
                closest_sq, np.sum((means - means[candidate]) ** 2, axis=1)
            )
        if len(chosen) == m:
            order = tuple(chosen)
        self._seed_orders[key] = order
        return order

    def margin_ok(self, log_totals: Sequence[float]) -> bool:
        """Do the actual mixing weights keep every certified margin?

        ``log_totals[j]`` is ``log`` of location ``j``'s pooled quanta
        total.  Identity grouping survives the E-step iff for every
        ordered pair ``a != b``::

            log pi_b - log pi_a < margins[a][b]

        (the shared ``- log W`` cancels in the difference).  The slack
        absorbs segment-sum dust in the EM's group moments and log
        rounding; a failed check is always safe — the receipt just runs
        the real pipeline.
        """
        m = len(log_totals)
        if m == 1:
            return True  # a single location is one group regardless of weight
        margins = self._margins
        slack = self._slack
        assert margins is not None and slack is not None
        for a in range(m):
            log_a = log_totals[a]
            margin_row = margins[a]
            slack_row = slack[a]
            for b in range(m):
                if b == a:
                    continue
                if log_totals[b] - log_a >= margin_row[b] - slack_row[b]:
                    return False
        return True

    def margin_threshold_matrix(self) -> Optional[np.ndarray]:
        """``margins - slack`` as an ``(m, m)`` array, ``+inf`` diagonal.

        The batched form of :meth:`margin_ok`: a log-total vector ``t``
        (in location-index order) passes iff
        ``(t[None, :] - t[:, None] < matrix).all()`` — the diagonal is
        ``+inf`` so the zero self-difference never fails.  Finite entries
        are tightened by a relative 1e-12, leaving a pass that log rounding
        could decide either way to :meth:`margin_ok`.  Cached; None when
        the certificate carries no margins (greedy style, one location).
        """
        matrix = self._threshold_matrix
        if matrix is None:
            if self._margins is None or self._slack is None:
                return None
            matrix = np.asarray(self._margins) - np.asarray(self._slack)
            finite = np.isfinite(matrix)
            matrix[finite] -= 1e-12 * (1.0 + np.abs(matrix[finite]))
            np.fill_diagonal(matrix, np.inf)
            self._threshold_matrix = matrix
        return matrix


def _pairwise_distances_positive(rows: np.ndarray) -> bool:
    """Whether every off-diagonal pairwise squared distance is > 0."""
    deltas = rows[:, None, :] - rows[None, :, :]
    distances_sq = np.einsum("abd,abd->ab", deltas, deltas)
    np.fill_diagonal(distances_sq, np.inf)
    return bool(distances_sq.min() > 0.0) if rows.shape[0] > 1 else True


def _build_certificate(
    scheme: "SummaryScheme",
    locations: Tuple[bytes, ...],
    summaries: Tuple[Any, ...],
) -> IdentityCertificate:
    """Construct (and validate) the certificate for one location set."""
    style = scheme.identity_partition_style
    if style not in ("em", "greedy"):
        return IdentityCertificate(locations, style or "none", valid=False)
    columns = scheme.pack_summaries(list(summaries))
    if style == "greedy":
        matrix = next(iter(columns.values()))
        positions = np.atleast_2d(np.asarray(matrix, dtype=float))
        # The greedy argument needs strictly positive cross-location
        # distances (zero-distance duplicate pairs must be the unique
        # minimum), so check computed distances rather than byte
        # inequality — distinct rows can still underflow to distance 0.
        if not _pairwise_distances_positive(positions):
            return IdentityCertificate(locations, style, valid=False)
        return IdentityCertificate(locations, style, valid=True)

    # EM style: needs mean/cov columns (the Gaussian schemes' packing).
    if "mean" not in columns or "cov" not in columns:
        return IdentityCertificate(locations, style, valid=False)
    means = np.atleast_2d(np.asarray(columns["mean"], dtype=float))
    covs = np.asarray(columns["cov"], dtype=float)
    if covs.ndim == 2:
        covs = covs[None, :, :]
    m = means.shape[0]
    # Seed-distance and initial-assignment uniqueness need strictly
    # positive pairwise mean distances as *computed* (not merely
    # byte-distinct means, which can underflow to distance zero).
    if not _pairwise_distances_positive(means):
        return IdentityCertificate(locations, style, valid=False)
    if m == 1:
        return IdentityCertificate(locations, style, valid=True, means=means)
    # Score margins at uniform group weights: the mixing-weight term is
    # constant across groups there, so scores[a, a] - scores[a, b] is the
    # pure geometry of "component at location a under group b" — computed
    # with the same regularised-Cholesky scoring the EM E-step runs.
    from repro.ml.reduction import _score_features, _score_matrix  # noqa: PLC0415

    scores = _score_matrix(
        _score_features(means, covs), means.shape[1], np.ones(m), means, covs
    )
    margins = scores.diagonal()[:, None] - scores
    return IdentityCertificate(locations, style, valid=True, means=means, margins=margins)


class MergeCache:
    """Run-scoped, node-shared identity certificates and no-op plans.

    Owned by the :class:`~repro.network.kernel.SimulationKernel` (which
    folds its counters into :class:`~repro.network.metrics.NetworkMetrics`)
    and consulted for every :class:`~repro.core.node.ClassifierNode` of the
    run by the round driver, :func:`repro.core.receive.receive_round` (an
    arena's :class:`~repro.mega.engine.ReceiveSolver` owns one the same way).
    Byte-identity contract: a certified no-op produces exactly the packed
    rows, stats deltas and ``merge`` events the uncached pipeline would
    have produced.  The parity and determinism suites pin this with the
    cache on (the default).

    :meth:`lookup` and :meth:`store` read and write the no-op plan
    table, which is dropped whole once it holds ``_MAX_PLANS`` blocks.
    ``noop_hits`` counts the receives the cache answered and ``misses``
    those it was consulted on and could not answer.
    """

    def __init__(self) -> None:
        self._certificates: "OrderedDict[Tuple[bytes, ...], IdentityCertificate]" = (
            OrderedDict()
        )
        self._plans: Dict[Any, Any] = {}
        self.noop_hits = 0
        self.misses = 0

    def lookup(self, key: Any) -> Any:
        """The no-op plan stored under ``key``, or :data:`MISSING`."""
        return self._plans.get(key, MISSING)

    def store(self, key: Any, plan: Any) -> None:
        """Store a block's no-op plan (``None``: the block is never a no-op)."""
        plans = self._plans
        if len(plans) >= _MAX_PLANS:
            plans.clear()
        plans[key] = plan

    def drop_plans(self) -> None:
        """Forget every no-op plan: their keys name rows by ids about to be renumbered."""
        self._plans.clear()

    def record_noop(self) -> None:
        self.noop_hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    def certificate_for(
        self,
        scheme: "SummaryScheme",
        locations: Tuple[bytes, ...],
        summaries: Tuple[Any, ...],
    ) -> IdentityCertificate:
        """The (possibly invalid) certificate for a sorted location set."""
        certificate = self._certificates.get(locations)
        if certificate is None:
            certificate = _build_certificate(scheme, locations, summaries)
            if len(self._certificates) >= 512:
                self._certificates.popitem(last=False)
            self._certificates[locations] = certificate
        else:
            self._certificates.move_to_end(locations)
        return certificate

    def counters(self) -> dict[str, int]:
        """Snapshot for metrics/report plumbing."""
        return {"cache_misses": self.misses, "cache_noop_hits": self.noop_hits}
