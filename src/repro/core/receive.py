"""Algorithm 1's receive step (lines 8-11), decided once for every engine.

A receive pools the incoming rows with the receiver's local rows,
partitions the pooled set into at most ``k`` groups and merges each
group into one row.  Two engines run it: a
:class:`~repro.core.node.ClassifierNode` names a row by its content
digest, :class:`~repro.mega.engine.ReceiveSolver` by its interned
summary id.  Both names biject with the row bytes, so this module
decides every receive over opaque *row tokens*, and byte parity between
the engines holds because there is one decision to make:

- :func:`takes_fast_path` -- below the compression bound the partition
  is the identity (``SummaryScheme.identity_below_k``);
- :func:`certified_noop` -- a receive whose incoming rows are all local
  ones reduces, when an :class:`~repro.core.fingerprint.IdentityCertificate`
  proves it, to quanta arithmetic on a :class:`NoopPlan` kept on the
  run's :class:`~repro.core.fingerprint.MergeCache`;
- :func:`sweep_noops` -- the same no-op for every receive on one local
  block at once, as array operations;
- :func:`solve_block` -- the full solve of any number of pooled sets held
  in one block: one partition call into one flat grouping, one merge
  call, and array operations that build a :class:`SolvedBlock`;
- :class:`ReceiveBatch` -- a synchronous round's no-op candidates and
  full solves on :class:`~repro.core.node.ClassifierNode` receivers,
  decided and solved together.

Each engine keeps what is its own: the order in which it consults its
layers (the arena also answers a receive posed twice in one round from
its round memo), stats, events, interning and the write-back into its
state.  No receive outcome outlives the round that computed it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fingerprint import MISSING, IdentityCertificate, MergeCache
from repro.core.packed import PackedState, flatten_groups, split_groups
from repro.core.scheme import SummaryScheme, validate_partition
from repro.core.weights import Quantization
from repro.obs.profiling import span

__all__ = [
    "NoopPlan",
    "PendingSolve",
    "QueuedBlock",
    "ReceiveBatch",
    "ReceiveRows",
    "SWEEP_MIN_BLOCK",
    "SolvedBlock",
    "build_noop_plan",
    "certified_noop",
    "merge_pooled",
    "noop_plan",
    "partition_pooled",
    "solve_block",
    "sweep_noops",
    "takes_fast_path",
]

#: ``resolve(token, position) -> (digest, summary)`` for one local row.
Resolver = Callable[[Hashable, int], Tuple[bytes, Any]]

#: Fewest receives of one local block that both engines hand to
#: :func:`sweep_noops`; fewer cost less through :func:`certified_noop`.
SWEEP_MIN_BLOCK = 16

#: One output order of :func:`sweep_noops`: accepted candidates, tokens,
#: quanta and group sizes (a row per candidate), columns.
Swept = Tuple[np.ndarray, Tuple[Hashable, ...], np.ndarray, np.ndarray, Dict[str, np.ndarray]]


class ReceiveRows:
    """A fast-path or no-op receive's output rows, in output order.

    ``tokens`` names each row, ``quanta`` weighs it, ``columns`` holds its
    packed summary, and ``group_sizes`` counts the pooled rows behind it;
    every group of more than one row is one merge.  Arrays are never
    mutated in place, so the arena's round memo hands one instance to
    every receiver of a round that poses its problem.
    """

    __slots__ = ("tokens", "quanta", "columns", "group_sizes", "merges")

    def __init__(
        self,
        tokens: Any,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
        group_sizes: Tuple[int, ...],
    ) -> None:
        self.tokens = tokens
        self.quanta = quanta
        self.columns = columns
        self.group_sizes = group_sizes
        self.merges = len(group_sizes) - group_sizes.count(1)


def takes_fast_path(
    scheme: SummaryScheme,
    k: int,
    quantization: Quantization,
    local_quanta: np.ndarray,
    incoming_quanta: np.ndarray,
) -> bool:
    """Whether the pooled rows are the output as they stand.

    Below the compression bound the partition is the identity (see
    ``SummaryScheme.identity_below_k``) unless a minimum-weight row could
    trigger conformance rule 2; a receive always pools at least two rows.
    """
    return (
        len(local_quanta) + len(incoming_quanta) <= k
        and scheme.identity_below_k
        and not quantization.is_minimum(
            min(int(local_quanta.min()), int(incoming_quanta.min()))
        )
    )


# ----------------------------------------------------------------------
# Certified no-op receives
# ----------------------------------------------------------------------
class NoopPlan:
    """Everything about a certified no-op that depends only on the local tokens.

    A local block of ``m`` distinct tokens fixes the token-to-position
    map, the :class:`~repro.core.fingerprint.IdentityCertificate` of its
    locations, the maps between local positions and certificate
    locations, and -- per heaviest position -- the certified output
    order with its tokens and columns gathered from the block.  Only the
    quanta arithmetic is left per receive.  Sharing the gathered arrays
    is safe because a token bijects with its row bytes and output arrays
    are never mutated in place.
    """

    __slots__ = (
        "local_index",
        "certificate",
        "cert_of_pos",
        "pos_of_cert",
        "style_em",
        "orders",
    )

    def __init__(
        self,
        local_index: Dict[Hashable, int],
        certificate: IdentityCertificate,
        cert_of_pos: List[int],
        pos_of_cert: List[int],
        style_em: bool,
    ) -> None:
        self.local_index = local_index
        self.certificate = certificate
        self.cert_of_pos = cert_of_pos
        self.pos_of_cert = pos_of_cert
        self.style_em = style_em
        # heaviest local position (-1 for greedy style) -> None when the
        # walk cannot be certified, else (order, tokens, columns).
        self.orders: Dict[int, Any] = {}

    def order_for(
        self,
        heaviest: int,
        tokens: Sequence[Hashable],
        columns: Dict[str, np.ndarray],
    ) -> Optional[Tuple[List[int], Tuple[Hashable, ...], Dict[str, np.ndarray]]]:
        """The certified output order, its tokens and its columns, or None.

        EM style: the maximin seed walk from the heaviest location, whose
        cross-location ties go to the lowest local rank, as the pooled
        ``np.argmax`` would.  Greedy style: duplicates coalesce first and
        the loop stops at exactly ``k = m`` groups, so the leaders keep
        first-occurrence order -- the local order, since every incoming
        row is a local one.  ``tokens`` and ``columns`` are the local
        block's, gathered once per order.
        """
        key = heaviest if self.style_em else -1
        entry = self.orders.get(key, MISSING)
        if entry is MISSING:
            order: Optional[List[int]] = list(range(len(self.cert_of_pos)))
            if self.style_em:
                seed_order = self.certificate.seed_order(
                    self.cert_of_pos[heaviest], tuple(self.pos_of_cert)
                )
                order = (
                    None
                    if seed_order is None
                    else [self.pos_of_cert[index] for index in seed_order]
                )
            entry = None
            if order is not None:
                take = np.asarray(order, dtype=np.intp)
                entry = (
                    order,
                    tuple(tokens[position] for position in order),
                    {name: column[take] for name, column in columns.items()},
                )
            self.orders[key] = entry
        return entry


def build_noop_plan(
    cache: MergeCache,
    scheme: SummaryScheme,
    k: int,
    tokens: Tuple[Hashable, ...],
    resolve: Resolver,
) -> Optional[NoopPlan]:
    """A local block's :class:`NoopPlan`, or None when no receive on it can be a no-op.

    The block must hold at most ``k`` distinct tokens, the scheme must
    declare an ``identity_partition_style`` (greedy only with exactly
    ``k`` locations: its merge loop stops at ``k`` groups and would leave
    duplicates of fewer locations uncoalesced), and the certificate of
    the block's locations must hold.
    """
    m = len(tokens)
    local_index = {token: position for position, token in enumerate(tokens)}
    style = scheme.identity_partition_style
    if m > k or len(local_index) != m or style is None:
        return None
    if style == "greedy" and m != k:
        return None
    digests, summaries = zip(*(resolve(token, position) for position, token in enumerate(tokens)))
    position_of = {digest: position for position, digest in enumerate(digests)}
    locations = tuple(sorted(digests))
    certificate = cache.certificate_for(
        scheme, locations, tuple(summaries[position_of[digest]] for digest in locations)
    )
    if not certificate.valid:
        return None
    return NoopPlan(
        local_index,
        certificate,
        [certificate.index_of[digest] for digest in digests],
        [position_of[digest] for digest in certificate.locations],
        style == "em",
    )


def noop_plan(
    cache: MergeCache,
    scheme: SummaryScheme,
    k: int,
    tokens: Tuple[Hashable, ...],
    resolve: Resolver,
) -> Optional[NoopPlan]:
    """The run's plan for an ordered local token block, built on first use."""
    key = (k, tokens)
    plan = cache.lookup(key)
    if plan is MISSING:
        plan = build_noop_plan(cache, scheme, k, tokens, resolve)
        cache.store(key, plan)
    return plan


def certified_noop(
    cache: MergeCache,
    scheme: SummaryScheme,
    k: int,
    quantization: Quantization,
    tokens: Sequence[Hashable],
    quanta: np.ndarray,
    incoming_tokens: Sequence[Hashable],
    incoming_quanta: np.ndarray,
    columns: Dict[str, np.ndarray],
    resolve: Resolver,
) -> Optional[ReceiveRows]:
    """The output of a receive that provably changes nothing but quanta.

    Applies when every incoming token is a local one: the pooled set is
    then ``m`` locations with duplicates, and -- under conditions the
    block's certificate proves -- the partition groups the pooled rows
    exactly by location and every merge reproduces the local bytes
    (identical rows pool exactly).  The checks run in one fixed order:
    membership, pooled size above ``k`` (at or below it the partition
    may keep duplicates apart), no minimum-weight row (conformance rule
    2 and its repair could reshape the partition), the plan, the
    heaviest location (strict first-index argmax over locals then
    incoming rows, the pooled order the partition sees), the E-step
    margins at the actual mixing weights, and the seed order.  Any
    check that fails returns None and the receive takes the full solve,
    so the no-op is sound by construction.  Exact integer quanta
    (< 2**53) make the argmax and the log-weights exact.

    ``tokens``/``quanta``/``columns`` are the local block's,
    ``incoming_tokens``/``incoming_quanta`` the payload rows' in
    delivery order; ``resolve`` gives a local row's digest and summary
    when the plan has to be built.
    """
    if not set(tokens).issuperset(incoming_tokens):
        return None
    if len(tokens) + len(incoming_tokens) <= k:
        return None
    is_minimum = quantization.is_minimum
    totals = quanta.tolist()
    incoming_weights = incoming_quanta.tolist()
    if any(map(is_minimum, totals)) or any(map(is_minimum, incoming_weights)):
        return None
    tokens = tuple(tokens)
    plan = noop_plan(cache, scheme, k, tokens, resolve)
    if plan is None:
        return None
    local_index = plan.local_index
    members = [1] * len(totals)
    best = max(totals)
    heaviest = totals.index(best)
    for token, weight in zip(incoming_tokens, incoming_weights):
        position = local_index[token]
        totals[position] += weight
        members[position] += 1
        if weight > best:
            best = weight
            heaviest = position
    if plan.style_em:
        log_totals = [0.0] * len(totals)
        for position, index in enumerate(plan.cert_of_pos):
            log_totals[index] = math.log(totals[position])
        if not plan.certificate.margin_ok(log_totals):
            return None
    entry = plan.order_for(heaviest, tokens, columns)
    if entry is None:
        return None
    order, out_tokens, out_columns = entry
    return ReceiveRows(
        out_tokens,
        np.array([totals[position] for position in order], dtype=np.int64),
        out_columns,
        tuple(members[position] for position in order),
    )


def sweep_noops(
    cache: MergeCache,
    scheme: SummaryScheme,
    k: int,
    quantization: Quantization,
    tokens: Tuple[Hashable, ...],
    columns: Dict[str, np.ndarray],
    local_quanta: np.ndarray,
    incoming_tokens: np.ndarray,
    incoming_quanta: np.ndarray,
    widths: np.ndarray,
    resolve: Resolver,
) -> List[Swept]:
    """:func:`certified_noop` for many receives on one local block, decided at once.

    Candidate ``r`` holds the block (``tokens``, ``columns``) at quanta
    ``local_quanta[r]`` and receives ``widths[r] >= 1`` rows, held
    candidate by candidate in ``incoming_tokens`` and ``incoming_quanta``
    (tokens numpy orders: interned ids, or digests of one width).  Each
    candidate of a returned order gets :func:`certified_noop`'s rows.
    The margin test is tightened, so a candidate in no order (a
    borderline one among them) is left to :func:`certified_noop`.
    """
    if type(quantization) is not Quantization:
        return []  # another lattice's minimum weight is not known here
    plan = noop_plan(cache, scheme, k, tokens, resolve)
    tight = None if plan is None else plan.certificate.margin_threshold_matrix()
    if plan is None or not plan.style_em or tight is None:
        return []
    m = len(tokens)
    count = len(widths)
    owner = np.repeat(np.arange(count), widths)
    block = np.asarray(tokens)
    by_token = np.argsort(block, kind="stable")
    position = by_token[np.minimum(np.searchsorted(block[by_token], incoming_tokens), m - 1)]
    ok = (local_quanta != 1).all(axis=1) & (widths > k - m)
    ok[owner[(block[position] != incoming_tokens) | (incoming_quanta == 1)]] = False
    cell = owner * m + position
    totals = local_quanta.astype(np.int64)
    np.add.at(totals.reshape(-1), cell, incoming_quanta)
    sizes = np.bincount(cell, minlength=count * m).reshape(count, m) + 1
    # The heaviest location is the first local argmax, unless an incoming
    # row is heavier: then the first incoming row of the largest weight.
    heaviest = local_quanta.argmax(axis=1)
    incoming_max = np.maximum.reduceat(incoming_quanta, np.cumsum(widths) - widths)
    rows = np.flatnonzero((incoming_max > local_quanta.max(axis=1))[owner])
    rows = rows[incoming_quanta[rows] == incoming_max[owner[rows]]]
    first = rows[np.diff(owner[rows], prepend=-1) != 0]
    heaviest[owner[first]] = position[first]
    log_totals = np.empty(totals.shape)
    log_totals[:, plan.cert_of_pos] = np.log(totals)
    ok &= (log_totals[:, None, :] - log_totals[:, :, None] < tight).all(axis=(1, 2))
    swept: List[Swept] = []
    for best in np.unique(heaviest[ok]).tolist():
        entry = plan.order_for(best, tokens, columns)
        if entry is not None:  # certified_noop refuses the receives of a None
            order, out_tokens, out_columns = entry
            accepted = np.flatnonzero(ok & (heaviest == best))
            out_quanta, out_sizes = totals[accepted][:, order], sizes[accepted][:, order]
            swept.append((accepted, out_tokens, out_quanta, out_sizes, out_columns))
    return swept


# ----------------------------------------------------------------------
# The full solve
# ----------------------------------------------------------------------
def partition_pooled(
    scheme: SummaryScheme,
    pooled: PackedState,
    bounds: Sequence[int],
    k: int,
    quantization: Quantization,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 line 10 for every problem of one pooled block, as one
    flat grouping (:func:`~repro.core.packed.flatten_groups`).

    Problem ``p`` pools rows ``bounds[p]:bounds[p+1]``.  One problem runs
    the scheme's scalar ``partition_packed``, several one
    ``partition_packed_batch`` call: a block of one pays the stack's
    bookkeeping for nothing (``docs/performance.md``, "Batched solves").
    """
    if len(bounds) == 2:
        return flatten_groups([scheme.partition_packed(pooled, k, quantization)], bounds)
    return scheme.partition_packed_batch(pooled, bounds, k, quantization)


class SolvedBlock:
    """Every output row of one block's problems, in output order.

    Problem ``p`` pooled rows ``bounds[p]:bounds[p+1]`` and owns output
    rows ``cuts[p]:cuts[p+1]``: ``tokens`` names each (``None`` without
    pooled tokens), ``quanta`` weighs it, ``columns`` holds it, and
    ``sizes`` counts its pooled rows, listed in ``members``.  Arrays are
    never mutated in place, so a problem's rows are views of the block's.
    """

    __slots__ = ("tokens", "quanta", "columns", "members", "sizes", "bounds", "cuts")

    def __init__(
        self, tokens: Optional[np.ndarray], quanta: np.ndarray, columns: Dict[str, np.ndarray],
        members: np.ndarray, sizes: np.ndarray, bounds: Sequence[int],
    ) -> None:
        self.tokens, self.quanta, self.columns = tokens, quanta, columns
        self.members, self.sizes, self.bounds = members, sizes, bounds
        self.cuts = np.searchsorted(np.cumsum(sizes), bounds, side="right").tolist()

    def problem(self, p: int) -> Tuple[Any, np.ndarray, Dict[str, np.ndarray], Tuple[int, ...]]:
        """Problem ``p``'s output tokens, quanta, columns and group sizes."""
        low, high = self.cuts[p], self.cuts[p + 1]
        return (
            None if self.tokens is None else tuple(self.tokens[low:high].tolist()),
            self.quanta[low:high],
            {name: column[low:high] for name, column in self.columns.items()},
            tuple(self.sizes[low:high].tolist()),
        )

    def groups(self, p: int) -> List[List[int]]:
        """Problem ``p``'s groups, indices relative to its first pooled row."""
        low, high = self.bounds[p], self.bounds[p + 1]
        sizes = self.sizes[self.cuts[p] : self.cuts[p + 1]]
        return split_groups(self.members[low:high], sizes, [low, high])[0]


def merge_pooled(
    scheme: SummaryScheme,
    pooled: PackedState,
    bounds: Sequence[int],
    members: np.ndarray,
    sizes: np.ndarray,
    tokens: Optional[np.ndarray] = None,
    name_rows: Optional[Callable[[Dict[str, np.ndarray]], Sequence[Hashable]]] = None,
) -> SolvedBlock:
    """Algorithm 1 line 11: group ``g`` of the flat grouping becomes output row ``g``.

    A singleton keeps its pooled row's bytes and token (merging one row
    is the identity under R4, and skipping the arithmetic keeps gossip
    free of float churn).  Every multi-member group is merged in one
    ``merge_groups_columns`` call, which merges group by group, and
    ``name_rows(merged)`` names the merged rows in that order.  Quanta
    sum exactly in int64.  ``tokens`` names the pooled rows, if given.
    """
    starts = np.cumsum(sizes) - sizes
    heads = members[starts]
    quanta = np.add.reduceat(pooled.quanta[members], starts)
    merged_at = sizes > 1
    columns = {name: column[heads] for name, column in pooled.columns.items()}
    out_tokens = None if tokens is None else tokens[heads]
    if merged_at.any():
        with span("scheme.merge_set"):
            merged = scheme.merge_groups_columns(
                pooled, members[np.repeat(merged_at, sizes)], sizes[merged_at]
            )
        for name, column in columns.items():
            column[merged_at] = merged[name]
        if out_tokens is not None:
            assert name_rows is not None
            out_tokens[merged_at] = np.array(name_rows(merged), dtype=out_tokens.dtype)
    return SolvedBlock(out_tokens, quanta, columns, members, sizes, bounds)


def solve_block(
    scheme: SummaryScheme,
    k: int,
    quantization: Quantization,
    pooled: PackedState,
    bounds: Sequence[int],
    tokens: Optional[np.ndarray] = None,
    name_rows: Optional[Callable[[Dict[str, np.ndarray]], Sequence[Hashable]]] = None,
    validate: bool = False,
) -> SolvedBlock:
    """The full solve of every pooled set in one block: :func:`partition_pooled`,
    each problem's groups checked against Algorithm 1's rules under
    ``validate`` before anything merges, then :func:`merge_pooled`."""
    members, sizes = partition_pooled(scheme, pooled, bounds, k, quantization)
    if validate:
        for low, high, groups in zip(bounds[:-1], bounds[1:], split_groups(members, sizes, bounds)):
            problem = PackedState(quanta=pooled.quanta[low:high], columns={})
            validate_partition(groups, problem, k, quantization)
    return merge_pooled(scheme, pooled, bounds, members, sizes, tokens, name_rows)


# ----------------------------------------------------------------------
# A synchronous round's receives on per-node receivers
# ----------------------------------------------------------------------
class PendingSolve:
    """One receiver's no-op candidate, queued on a :class:`ReceiveBatch`:
    the pooled set's two parts, then the no-op ``rows`` the batch decides
    or, if none, its full solve's ``(block, problem)``."""

    __slots__ = ("local", "payloads", "rows", "solve")

    def __init__(self, local: PackedState, payloads: Sequence[Any]) -> None:
        self.local = local
        self.payloads = payloads
        self.rows: Optional[ReceiveRows] = None
        self.solve: Optional[Tuple[QueuedBlock, int]] = None


class QueuedBlock:
    """One setting's queued full solves: each problem's parts (the local
    rows, then the payloads in delivery order) and ``bounds``, pooled in
    one copy and solved as one block into ``solved`` (with the pooled aux
    rows, if any, in ``aux``)."""

    __slots__ = ("scheme", "setting", "parts", "bounds", "solved", "aux")

    def __init__(self, scheme: SummaryScheme, setting: Tuple[int, Quantization, bool]) -> None:
        self.scheme, self.setting = scheme, setting
        self.parts: List[Any] = []
        self.bounds = [0]
        self.solved: Optional[SolvedBlock] = None
        self.aux: Optional[np.ndarray] = None

    def solve(self) -> None:
        pooled = PackedState.concat_many(self.parts)
        self.parts, self.aux = [], pooled.aux
        tokens = None if pooled.row_digests is None else np.array(pooled.row_digests, dtype=object)
        k, quantization, validate = self.setting
        self.solved = solve_block(
            self.scheme, k, quantization, pooled, self.bounds, tokens,
            self.scheme.digest_rows, validate,
        )


class ReceiveBatch:
    """A synchronous round's receives, decided and solved together.

    In a round all sends precede all receives (Section 5.3), so its
    receives are independent problems.  Each receiver decides what it
    can alone and queues the rest.  :meth:`solve` decides the no-op
    candidates of each local block through :func:`sweep_noops` (from
    :data:`SWEEP_MIN_BLOCK` of them) and :func:`certified_noop`, then
    solves each :class:`QueuedBlock`; rows with and without digests (or
    aux rows) go to separate blocks, so a row is named exactly when a
    one-at-a-time solve would name it.  A batch is local to the call
    that decides and completes its receives.
    """

    __slots__ = ("_blocks", "_candidates")

    def __init__(self) -> None:
        # (scheme id, k, lattice, validate, rows named, aux rows) -> block
        self._blocks: Dict[Tuple[Any, ...], QueuedBlock] = {}
        # (cache id, scheme id, k, lattice, validate, local tokens) -> candidates
        self._candidates: Dict[Tuple[Any, ...], Tuple[Any, SummaryScheme, List[PendingSolve]]] = {}

    def queue(
        self,
        scheme: SummaryScheme,
        k: int,
        quantization: Quantization,
        validate: bool,
        local: PackedState,
        payloads: Sequence[Any],
    ) -> Tuple[QueuedBlock, int]:
        """Queue the full solve pooling ``local`` with ``payloads``; returns
        its block and its problem index there."""
        named = local.row_digests is not None and all(
            payload.row_digests is not None for payload in payloads
        )
        key = (id(scheme), k, quantization, validate, named, local.aux is not None)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = QueuedBlock(scheme, (k, quantization, validate))
        block.parts += (local, *payloads)
        block.bounds.append(block.bounds[-1] + len(local) + sum(map(len, payloads)))
        return block, len(block.bounds) - 2

    def queue_candidate(
        self,
        scheme: SummaryScheme,
        k: int,
        quantization: Quantization,
        validate: bool,
        local: PackedState,
        payloads: Sequence[Any],
        cache: MergeCache,
    ) -> PendingSolve:
        """Queue a receive as a no-op candidate: ``payloads``' row digests
        are all ``local``'s, and the receive pools more than ``k`` rows."""
        pending = PendingSolve(local, payloads)
        key = (id(cache), id(scheme), k, quantization, validate, local.row_digests)
        self._candidates.setdefault(key, (cache, scheme, []))[2].append(pending)
        return pending

    def solve(self) -> None:
        """Decide every no-op candidate, then solve every queued block."""
        for key, (cache, scheme, pending) in self._candidates.items():
            self._decide(cache, scheme, key[2:5], key[5], pending)
        for block in self._blocks.values():
            block.solve()

    def _decide(
        self,
        cache: MergeCache,
        scheme: SummaryScheme,
        setting: Tuple[int, Quantization, bool],
        tokens: Tuple[bytes, ...],
        pending: List[PendingSolve],
    ) -> None:
        """Answer one local block's candidates; queue the full solves of the rest."""
        k, quantization, validate = setting
        columns = pending[0].local.columns  # a digest bijects with its row's bytes

        def resolve(digest: Any, position: int) -> Tuple[bytes, Any]:
            return digest, scheme.unpack_summary(columns, position)

        if len(pending) >= SWEEP_MIN_BLOCK:
            payloads = [payload for item in pending for payload in item.payloads]
            digests = [digest for payload in payloads for digest in payload.row_digests]
            widths = np.array([sum(map(len, item.payloads)) for item in pending])
            local_quanta = np.concatenate([item.local.quanta for item in pending])
            digest_array = np.frombuffer(b"".join(digests), dtype=f"S{len(digests[0])}")
            for accepted, out_tokens, quanta, sizes, out_columns in sweep_noops(
                cache, scheme, k, quantization, tokens, columns,
                local_quanta.reshape(len(pending), -1), digest_array,
                np.concatenate([payload.quanta for payload in payloads]), widths, resolve,
            ):
                for index, row, row_sizes in zip(accepted.tolist(), quanta, sizes.tolist()):
                    item = pending[index]
                    item.rows = ReceiveRows(out_tokens, row, out_columns, tuple(row_sizes))
        for item in pending:
            if item.rows is not None:
                continue
            payloads = item.payloads
            if len(payloads) == 1:
                in_tokens, in_quanta = payloads[0].row_digests, payloads[0].quanta
            else:
                in_tokens = [digest for payload in payloads for digest in payload.row_digests]
                in_quanta = np.concatenate([payload.quanta for payload in payloads])
            item.rows = certified_noop(
                cache, scheme, k, quantization, tokens, item.local.quanta,
                in_tokens, in_quanta, columns, resolve,
            )
            if item.rows is None:
                item.solve = self.queue(scheme, k, quantization, validate, item.local, payloads)
