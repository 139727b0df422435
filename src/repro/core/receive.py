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
- :func:`receive_round` -- the one round driver: a round's receives,
  posed as one :class:`ReceiveSlab`, answered by the layers above and a
  round memo (a receive posed twice is answered once) into a
  :class:`RoundReceives`;
- :class:`ReceiveBatch` -- the slab of a round's
  :class:`~repro.core.node.ClassifierNode` receivers.

Each engine keeps what is its own: stats, events, interning and the
write-back into its state.  No receive outcome outlives the round that
computed it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.fingerprint import MISSING, IdentityCertificate, MergeCache
from repro.core.packed import PackedState, flatten_groups, split_groups
from repro.core.scheme import SummaryScheme, validate_partition
from repro.core.weights import Quantization
from repro.obs.profiling import span

__all__ = [
    "FAST",
    "NOOP",
    "NoopPlan",
    "ReceiveBatch",
    "ReceiveRows",
    "ReceiveSlab",
    "RoundReceives",
    "SOLVED",
    "SWEEP_MIN_BLOCK",
    "SWEPT",
    "SolvedBlock",
    "build_noop_plan",
    "certified_noop",
    "noop_plan",
    "ragged_slots",
    "receive_round",
    "solve_block",
    "sweep_noops",
    "takes_fast_path",
]

#: ``digest_of(token)``: a row token's content digest (None: tokens are digests).
DigestOf = Optional[Callable[[Hashable], bytes]]

#: Fewest receives of one local block that :func:`receive_round` hands to
#: :func:`sweep_noops`; fewer cost less through :func:`certified_noop`.
SWEEP_MIN_BLOCK = 16

#: One output order of :func:`sweep_noops`: accepted candidates, tokens,
#: quanta and group sizes (a row per candidate), columns.
Swept = Tuple[np.ndarray, Tuple[Hashable, ...], np.ndarray, np.ndarray, Dict[str, np.ndarray]]


class ReceiveRows(NamedTuple):
    """A receive's output rows, in output order.

    ``tokens`` names each row, ``quanta`` weighs it, ``columns`` holds its
    packed summary, and ``group_sizes`` counts the pooled rows behind it;
    every group of more than one row is one merge.  Arrays are never
    mutated in place, so the round memo hands one instance to every
    receiver of a round that poses its problem.
    """

    tokens: Any
    quanta: np.ndarray
    columns: Dict[str, np.ndarray]
    group_sizes: Tuple[int, ...]


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
    columns: Dict[str, np.ndarray],
    digest_of: DigestOf = None,
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
    digests = tokens if digest_of is None else tuple(map(digest_of, tokens))
    summaries = [scheme.unpack_summary(columns, position) for position in range(m)]
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
    columns: Dict[str, np.ndarray],
    digest_of: DigestOf = None,
) -> Optional[NoopPlan]:
    """The run's plan for an ordered local token block, built on first use."""
    key = (k, tokens)
    plan = cache.lookup(key)
    if plan is MISSING:
        plan = build_noop_plan(cache, scheme, k, tokens, columns, digest_of)
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
    digest_of: DigestOf = None,
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
    delivery order; ``digest_of`` names a local row's location when the
    plan has to be built.
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
    plan = noop_plan(cache, scheme, k, tokens, columns, digest_of)
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
    digest_of: DigestOf = None,
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
    plan = noop_plan(cache, scheme, k, tokens, columns, digest_of)
    tight = None if plan is None else plan.certificate.margin_threshold_matrix()
    if plan is None or not plan.style_em or tight is None:
        return []
    m = len(tokens)
    count = len(widths)
    owner = np.repeat(np.arange(count), widths)
    block = np.asarray(tokens, dtype=incoming_tokens.dtype)
    by_token = np.argsort(block, kind="stable")
    position = by_token[np.minimum(np.searchsorted(block[by_token], incoming_tokens), m - 1)]
    is_minimum = quantization.is_minimum
    ok = ~is_minimum(local_quanta).any(axis=1) & (widths > k - m)
    ok[owner[(block[position] != incoming_tokens) | is_minimum(incoming_quanta)]] = False
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
class SolvedBlock:
    """Every output row of one block's problems, in output order.

    Problem ``p`` pooled rows ``bounds[p]:bounds[p+1]`` and owns output
    rows ``cuts[p]:cuts[p+1]``: ``tokens`` names each (``None`` without
    pooled tokens), ``quanta`` weighs it, ``columns`` holds it, and
    ``sizes`` counts its pooled rows, listed in ``members``.  Arrays are
    never mutated in place, so a problem's rows are views of the block's.
    """

    __slots__ = ("tokens", "quanta", "columns", "members", "sizes", "bounds", "cuts", "_lists")

    def __init__(
        self, tokens: Optional[np.ndarray], quanta: np.ndarray, columns: Dict[str, np.ndarray],
        members: np.ndarray, sizes: np.ndarray, bounds: Sequence[int],
    ) -> None:
        self.tokens, self.quanta, self.columns = tokens, quanta, columns
        self.members, self.sizes, self.bounds = members, sizes, bounds
        self.cuts = np.searchsorted(np.cumsum(sizes), bounds, side="right").tolist()
        self._lists: Optional[Tuple[Optional[List[Any]], List[int]]] = None

    def problem(self, p: int) -> Tuple[Any, np.ndarray, Dict[str, np.ndarray], Tuple[int, ...]]:
        """Problem ``p``'s output tokens, quanta, columns and group sizes."""
        if self._lists is None:  # one conversion for a block read problem by problem
            self._lists = (None if self.tokens is None else self.tokens.tolist(), self.sizes.tolist())
        tokens, sizes = self._lists
        low, high = self.cuts[p], self.cuts[p + 1]
        return (
            None if tokens is None else tuple(tokens[low:high]),
            self.quanta[low:high],
            {name: column[low:high] for name, column in self.columns.items()},
            tuple(sizes[low:high]),
        )

    def groups(self, p: int) -> List[List[int]]:
        """Problem ``p``'s groups, indices relative to its first pooled row."""
        low, high = self.bounds[p], self.bounds[p + 1]
        sizes = self.sizes[self.cuts[p] : self.cuts[p + 1]]
        return split_groups(self.members[low:high], sizes, [low, high])[0]


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
    """The full solve of every pooled set in one block; problem ``p``
    pools rows ``bounds[p]:bounds[p+1]``.

    Algorithm 1 line 10 gives one flat grouping
    (:func:`~repro.core.packed.flatten_groups`): one problem runs the
    scheme's scalar ``partition_packed``, several one
    ``partition_packed_batch`` call, since a block of one pays the
    stack's bookkeeping for nothing (``docs/performance.md``, "Batched
    solves").  Under ``validate`` each problem's groups are checked
    against Algorithm 1's rules before anything merges.  Line 11 makes
    group ``g`` output row ``g``: a singleton keeps its pooled row's
    bytes and token (merging one row is the identity under R4, and
    skipping the arithmetic keeps gossip free of float churn), every
    multi-member group is merged in one ``merge_groups_columns`` call,
    group by group, and ``name_rows(merged)`` names the merged rows in
    that order.  Quanta sum exactly in int64.  ``tokens`` names the
    pooled rows, if given.
    """
    if len(bounds) == 2:
        members, sizes = flatten_groups([scheme.partition_packed(pooled, k, quantization)], bounds)
    else:
        members, sizes = scheme.partition_packed_batch(pooled, bounds, k, quantization)
    if validate:
        for low, high, groups in zip(bounds[:-1], bounds[1:], split_groups(members, sizes, bounds)):
            problem = PackedState(quanta=pooled.quanta[low:high], columns={})
            validate_partition(groups, problem, k, quantization)
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


# ----------------------------------------------------------------------
# One round's receives
# ----------------------------------------------------------------------
#: How :func:`receive_round` answered a receiver.
SWEPT, FAST, NOOP, SOLVED = range(4)


class ReceiveSlab(NamedTuple):
    """One round's receives, as :func:`receive_round` takes them.

    Receiver ``r`` holds ``counts[row]`` local rows, row ``row =
    receivers[r]`` of the padded ``local_*`` arrays, and receives the
    flat rows ``bounds[r]:bounds[r+1]`` of ``tokens``, ``quanta`` and
    ``columns`` in delivery order.  Tokens are interned ids, or digests
    held as ``V`` bytes (which sort, search and compare on all their
    bytes); both token arrays are None when the rows are not named.
    ``sources``, when given, names the row of ``columns`` that holds each
    flat row, so a round can pose its incoming rows by reference: only
    the rows a fast path or a pooled problem reads are gathered.
    """

    receivers: np.ndarray
    counts: np.ndarray
    local_tokens: Optional[np.ndarray]
    local_quanta: np.ndarray
    local_columns: Dict[str, np.ndarray]
    bounds: np.ndarray
    tokens: Optional[np.ndarray]
    quanta: np.ndarray
    columns: Dict[str, np.ndarray]
    sources: Optional[np.ndarray] = None


class RoundReceives:
    """How :func:`receive_round` answered receiver ``r`` (``kinds[r]``), whether
    the round memo copied an earlier receiver's answer (``memo[r]``), and
    the answer: row ``slots[r]`` of the sweep's group ``swept[at[r]]``,
    ``rows[at[r]]``, or problem ``at[r]`` of ``block``."""

    __slots__ = ("kinds", "memo", "at", "slots", "swept", "rows", "block", "_lists")

    def __init__(self, count: int) -> None:
        self.kinds = np.full(count, -1, dtype=np.int8)
        self.memo = np.zeros(count, dtype=bool)
        self.at = np.zeros(count, dtype=np.intp)
        self.slots = np.zeros(count, dtype=np.intp)
        self.swept: List[Swept] = []
        self.rows: List[ReceiveRows] = []
        self.block: Optional[SolvedBlock] = None
        self._lists: Optional[Tuple[List[int], List[int], List[int], List[Any]]] = None

    def outcome(self, r: int) -> Tuple[int, Any, np.ndarray, Dict[str, np.ndarray], Tuple[int, ...]]:
        """Receiver ``r``'s kind, then its output tokens, quanta, columns and group sizes."""
        if self._lists is None:  # one conversion for a round read receiver by receiver
            swept: List[Any] = [None] * len(self.swept)
            self._lists = (self.kinds.tolist(), self.at.tolist(), self.slots.tolist(), swept)
        kinds, at, slots, swept = self._lists
        kind, index = kinds[r], at[r]
        if kind == SOLVED:
            assert self.block is not None
            return (kind, *self.block.problem(index))
        if kind != SWEPT:
            return (kind, *self.rows[index])
        group = swept[index]
        if group is None:  # the group's rows, one conversion for all its receivers
            _, tokens, quanta, sizes, columns = self.swept[index]
            group = swept[index] = (tokens, list(quanta), columns, list(map(tuple, sizes.tolist())))
        tokens, quanta, columns, sizes = group
        return kind, tokens, quanta[slots[r]], columns, sizes[slots[r]]


def ragged_slots(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten ragged ranges: each element's entry and its index in ``range(lengths[entry])``."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owner, slot


def receive_round(
    scheme: SummaryScheme,
    k: int,
    quantization: Quantization,
    slab: ReceiveSlab,
    cache: Optional[MergeCache] = None,
    name_rows: Optional[Callable[[Dict[str, np.ndarray]], Sequence[Hashable]]] = None,
    digest_of: DigestOf = None,
    validate: bool = False,
) -> RoundReceives:
    """Algorithm 1 lines 8-11 for every receiver of one round's ``slab``.

    In a round all sends precede all receives (Section 5.3), so its
    receives are independent problems, answered in three passes:

    1. with ``cache``, named rows and 32 receivers or more, receivers
       holding ``k`` rows are grouped by local block, and every block of
       :data:`SWEEP_MIN_BLOCK` receivers or more is one :func:`sweep_noops`;
    2. in receiver order, every other receiver is answered by the round
       memo (an earlier receiver posed the same tokens and quanta, so the
       same problem), by :func:`takes_fast_path` (its identity checked
       under ``validate``) or :func:`certified_noop`, or is queued;
    3. one :func:`solve_block` solves the distinct problems queued, and
       ``name_rows`` names their merged rows in queue order.

    ``digest_of`` gives a token's content digest (tokens are digests when
    it is None).  The driver writes no engine state.
    """
    receivers, counts, local_tokens, local_quanta, local_columns = slab[:5]
    bounds, tokens, quanta, columns, sources = slab[5:]
    count = len(receivers)
    out = RoundReceives(count)
    kinds, at = out.kinds, out.at
    named = tokens is not None and local_tokens is not None
    held = counts[receivers]

    if cache is not None and named and count >= 32:
        widths = np.diff(bounds)
        candidates = np.flatnonzero(held == k)
        blocks = local_tokens[receivers[candidates], :k]
        # One stable sort of each block's bytes groups the equal blocks.
        keys = blocks.view(f"V{blocks.itemsize * blocks.shape[1]}").ravel()
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.append(True, keys[order[1:]] != keys[order[:-1]]))
        sizes = np.diff(starts, append=len(order))
        large = sizes >= SWEEP_MIN_BLOCK
        for start, size in zip(starts[large].tolist(), sizes[large].tolist()):
            members = candidates[order[start : start + size]]
            rows = receivers[members]
            owner, slot = ragged_slots(widths[members])
            flat = bounds[members][owner] + slot
            block = {name: column[rows[0], :k] for name, column in local_columns.items()}
            for accepted, *swept in sweep_noops(
                cache, scheme, k, quantization, tuple(blocks[order[start]].tolist()), block,
                local_quanta[rows, :k], tokens[flat], quanta[flat], widths[members], digest_of,
            ):
                accepted = members[accepted]
                kinds[accepted] = SWEPT
                at[accepted] = len(out.swept)
                out.slots[accepted] = np.arange(len(accepted))
                out.swept.append((accepted, *swept))  # type: ignore[arg-type]
    # Pass 2 reads only the receivers the sweep left, and their incoming
    # rows, once into lists: from here on, receiver i is pending[i].
    pending = np.flatnonzero(kinds < 0)
    if len(pending) == 0:
        return out
    if len(pending) < count:
        widths = np.diff(bounds)[pending]
        owner, slot = ragged_slots(widths)
        flat = bounds[pending][owner] + slot
        bounds = np.append(0, np.cumsum(widths))
        tokens = None if tokens is None else tokens[flat]
        quanta = quanta[flat]
        sources = flat if sources is None else sources[flat]
        receivers, held = receivers[pending], held[pending]
    limits, row_list, held_list = bounds.tolist(), receivers.tolist(), held.tolist()
    # The round memo maps a receive's key (the bytes of its local and
    # incoming tokens and quanta) to its answer, ``index << 2 | kind``.
    memo: Dict[bytes, int] = {}
    keyed = named and len(pending) > 1
    if named:
        own_tokens_all = local_tokens[receivers]
        own_token_lists, token_list = own_tokens_all.tolist(), tokens.tolist()
    if keyed:
        # A receiver's local cells past its count hold no row: zeroed, they
        # make a key of its local tokens and quanta (a row holds a quantum
        # or more).  Its incoming rows' tokens and quanta, pair by pair,
        # end the key.
        cells = np.zeros(own_tokens_all.shape, [("token", tokens.dtype), ("quanta", np.int64)])
        held_cells = np.arange(cells.shape[1]) < held[:, None]
        cells["token"][held_cells] = own_tokens_all[held_cells]
        cells["quanta"][held_cells] = local_quanta[receivers][held_cells]
        local_keys = cells.view(f"V{cells.itemsize * cells.shape[1]}").ravel().tolist()
        pairs = np.empty(len(tokens), cells.dtype)
        pairs["token"], pairs["quanta"] = tokens, quanta
        pair_bytes, pair_size = pairs.tobytes(), pairs.itemsize
    queued: List[int] = []
    kinds_of: List[int] = []
    at_of: List[int] = []
    copied: List[int] = []
    for i, (row, m) in enumerate(zip(row_list, held_list)):
        start, stop = limits[i], limits[i + 1]
        if keyed:
            key = local_keys[i] + pair_bytes[start * pair_size : stop * pair_size]
            answer = memo.get(key)
            if answer is not None:
                copied.append(i)
                kinds_of.append(answer & 3)
                at_of.append(answer >> 2)
                continue
        outcome: Optional[ReceiveRows] = None
        kind = SOLVED
        if m + stop - start <= k:
            own_quanta, in_quanta = local_quanta[row, :m], quanta[start:stop]
            if takes_fast_path(scheme, k, quantization, own_quanta, in_quanta):
                kind = FAST
                read = slice(start, stop) if sources is None else sources[start:stop]
                outcome = ReceiveRows(
                    tuple(own_token_lists[i][:m] + token_list[start:stop]) if named else None,
                    np.concatenate([own_quanta, in_quanta]),
                    {
                        name: np.concatenate([column[row, :m], columns[name][read]])
                        for name, column in local_columns.items()
                    },
                    (1,) * (m + stop - start),
                )
                if validate:
                    identity = [[index] for index in range(len(outcome.quanta))]
                    validate_partition(identity, PackedState(outcome.quanta, {}), k, quantization)
        elif cache is not None and named:
            own_tokens, in_tokens = own_token_lists[i][:m], token_list[start:stop]
            # Membership first: quanta and columns are read only for a
            # receive whose incoming rows are all local ones.
            if set(own_tokens).issuperset(in_tokens):
                outcome = certified_noop(
                    cache, scheme, k, quantization, own_tokens, local_quanta[row, :m],
                    in_tokens, quanta[start:stop],
                    {name: column[row, :m] for name, column in local_columns.items()},
                    digest_of,
                )
                kind = SOLVED if outcome is None else NOOP
        if outcome is None:
            index = len(queued)
            queued.append(i)
        else:
            index = len(out.rows)
            out.rows.append(outcome)
        kinds_of.append(kind)
        at_of.append(index)
        if keyed:
            memo[key] = index << 2 | kind
    kinds[pending], at[pending], out.memo[pending[copied]] = kinds_of, at_of, True
    if len(queued) == 1:  # one problem: its local block, then its incoming rows
        (i,) = queued
        row, m, start, stop = row_list[i], held_list[i], limits[i], limits[i + 1]
        offsets = [0, m + stop - start]
        incoming_rows: Any = slice(start, stop)

        def pool(local: np.ndarray, incoming: np.ndarray, rows: Any = incoming_rows) -> np.ndarray:
            return np.concatenate([local[row, :m], incoming[rows]])

    elif queued:
        problems = np.asarray(queued, dtype=np.intp)
        rows = receivers[problems]
        held, starts = counts[rows], bounds[problems]
        lengths = bounds[problems + 1] - starts
        cuts = np.zeros(len(queued) + 1, dtype=np.intp)
        np.cumsum(held + lengths, out=cuts[1:])
        offsets = cuts.tolist()
        # Problem p pools rows offsets[p]:offsets[p+1]: its local block,
        # then its incoming rows in delivery order.
        owner, local_slot = ragged_slots(held)
        local_at, local_row = cuts[owner] + local_slot, rows[owner]
        owner, incoming_slot = ragged_slots(lengths)
        incoming_at = cuts[owner] + held[owner] + incoming_slot
        incoming_rows = starts[owner] + incoming_slot

        def pool(local: np.ndarray, incoming: np.ndarray, rows: Any = incoming_rows) -> np.ndarray:
            pooled = np.empty((offsets[-1],) + incoming.shape[1:], dtype=incoming.dtype)
            pooled[local_at] = local[local_row, local_slot]
            pooled[incoming_at] = incoming[rows]
            return pooled

    if queued:
        read = incoming_rows if sources is None else sources[incoming_rows]
        out.block = solve_block(
            scheme, k, quantization,
            PackedState(
                pool(local_quanta, quanta),
                {name: pool(column, columns[name], read) for name, column in local_columns.items()},
            ),
            offsets,
            pool(local_tokens, tokens) if named else None,  # type: ignore[arg-type]
            name_rows,
            validate,
        )
    return out


# ----------------------------------------------------------------------
# A round's receives on per-node receivers
# ----------------------------------------------------------------------
def _joined(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of ``arrays`` in one array: the array itself when there is one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _slab(states: List[PackedState], posed: List[Sequence[Any]], bounds: List[int]) -> ReceiveSlab:
    """The slab of receivers holding ``states`` and receiving ``posed``
    payloads (rows ``bounds[r]:bounds[r+1]``), padded to the widest local
    block; receive ``r`` is row ``r``, and a receive posed alone (one
    payload) views its node's arrays.  Rows are named by digest when every
    row has one."""
    payloads = [payload for parts in posed for payload in parts]
    named = all(part.row_digests is not None for part in (*states, *payloads))
    digest = f"V{len(states[0].row_digests[0])}" if named else None  # type: ignore[index]

    def digests(parts: Sequence[Any]) -> np.ndarray:
        return np.frombuffer(b"".join([b"".join(part.row_digests) for part in parts]), digest)

    lengths = [len(state.quanta) for state in states]
    counts, width = np.array(lengths, dtype=np.intp), max(lengths)
    fill = None if min(lengths) == width else np.arange(width) < counts[:, None]

    def padded(rows: np.ndarray) -> np.ndarray:
        if fill is None:  # a view: every block is as wide as the widest
            return rows.reshape((len(states), width) + rows.shape[1:])
        out = np.zeros((len(states), width) + rows.shape[1:], dtype=rows.dtype)
        out[fill] = rows
        return out

    names = states[0].columns
    return ReceiveSlab(
        np.arange(len(states)),
        counts,
        padded(digests(states)) if named else None,
        padded(_joined([state.quanta for state in states])),
        {name: padded(_joined([state.columns[name] for state in states])) for name in names},
        np.array(bounds, dtype=np.intp),
        digests(payloads) if named else None,
        _joined([payload.quanta for payload in payloads]),
        {name: _joined([payload.columns[name] for payload in payloads]) for name in names},
    )


class ReceiveBatch:
    """A round's receives on :class:`~repro.core.node.ClassifierNode` receivers.

    Each receiver poses its packed state and its payloads (:meth:`pose`);
    :meth:`solve` answers the receives of each setting with one
    :func:`receive_round`, and :meth:`answer` gives each its answer.  A
    batch is local to the call that completes its receives.
    """

    __slots__ = ("_groups", "_payloads", "_answers")

    def __init__(self) -> None:
        # (scheme id, k, lattice, validate, cache id) -> (a node, states, indices, bounds)
        self._groups: Dict[Tuple[Any, ...], Tuple[Any, List[Any], List[int], List[int]]] = {}
        self._payloads: List[Sequence[Any]] = []
        self._answers: List[Tuple[RoundReceives, int]] = []

    def pose(self, node: Any, state: PackedState, payloads: Sequence[Any], rows: int) -> int:
        """Pose ``node``'s receive of ``payloads`` (``rows`` rows in all) into
        ``state``; returns its index."""
        key = (id(node.scheme), node.k, node.quantization, node.validate, id(node.merge_cache))
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = (node, [], [], [0])
        index = len(self._payloads)
        group[1].append(state)
        group[2].append(index)
        group[3].append(group[3][-1] + rows)
        self._payloads.append(payloads)
        return index

    def solve(self) -> None:
        """Answer every posed receive."""
        self._answers = [None] * len(self._payloads)  # type: ignore[list-item]
        for node, states, indices, bounds in self._groups.values():
            slab = _slab(states, [self._payloads[index] for index in indices], bounds)
            states.clear()  # each old state goes as its receiver adopts the new one
            result = receive_round(
                node.scheme, node.k, node.quantization, slab, node.merge_cache,
                node.scheme.digest_rows, None, node.validate,
            )
            for position, index in enumerate(indices):
                self._answers[index] = (result, position)

    def answer(self, index: int) -> Tuple[RoundReceives, int, Sequence[Any]]:
        """Receive ``index``'s answers, its position in them, and its payloads."""
        return (*self._answers[index], self._payloads[index])
