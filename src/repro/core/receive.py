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
- :func:`solve_block` -- the full solve of any number of pooled sets held
  in one block (:func:`partition_pooled`, then :func:`merge_pooled`: one
  partition call, one merge call, and the assembly of groups into
  output rows), written into outcomes queued before the solve;
- :class:`ReceiveBatch` -- the queue of a synchronous round's full
  solves on :class:`~repro.core.node.ClassifierNode` receivers, solved
  in one :func:`solve_block` call per scheme, ``k`` and lattice.

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
from repro.core.packed import PackedState
from repro.core.scheme import SummaryScheme, validate_partition
from repro.core.weights import Quantization
from repro.obs.profiling import span

__all__ = [
    "NoopPlan",
    "PendingSolve",
    "ReceiveBatch",
    "ReceiveRows",
    "build_noop_plan",
    "certified_noop",
    "merge_pooled",
    "noop_plan",
    "partition_pooled",
    "solve_block",
    "takes_fast_path",
]

#: Placeholder arrays of a queued solve's rows (never mutated).
_UNSOLVED = np.empty(0, dtype=np.int64)

#: ``resolve(token, position) -> (digest, summary)`` for one local row.
Resolver = Callable[[Hashable, int], Tuple[bytes, Any]]


class ReceiveRows:
    """One receive's output rows, in output order.

    ``tokens`` names each row (``None`` when the pooled rows carried no
    tokens),
    ``quanta`` weighs it, ``columns`` holds its packed summary, and
    ``group_sizes`` counts the pooled rows behind it; every group of more
    than one row is one merge.  Arrays are never mutated in place, so
    one instance may serve every receive that produces it -- the arena's
    round memo hands it to every receiver of a round that poses its
    problem.  A full solve's instance is :meth:`unsolved` until
    :func:`solve_block` fills it in place: receives are decided, and
    their solves queued, before the round's block is solved.
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

    @classmethod
    def unsolved(cls) -> "ReceiveRows":
        """A queued full solve's rows, empty until its block is solved."""
        return cls(None, _UNSOLVED, {}, ())


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
        "tight_thresholds",
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
        # Vectorised margin thresholds, filled by the arena's sweep.
        self.tight_thresholds: Optional[np.ndarray] = None

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


# ----------------------------------------------------------------------
# The full solve
# ----------------------------------------------------------------------
def partition_pooled(
    scheme: SummaryScheme,
    problems: Sequence[PackedState],
    k: int,
    quantization: Quantization,
) -> List[List[List[int]]]:
    """Algorithm 1 line 10 for every pending pooled set, in one call.

    One problem runs the scheme's scalar ``partition_packed``; several
    run ``partition_packed_batch``, which solves them in stacks and
    returns the groups each would get alone.  The choice is by problem
    count: a stack of one pays the stack's bookkeeping for nothing (see
    ``docs/performance.md``, "Batched solves").
    """
    if len(problems) == 1:
        return [scheme.partition_packed(problems[0], k, quantization)]
    return scheme.partition_packed_batch(problems, k, quantization)


def merge_pooled(
    scheme: SummaryScheme,
    pooled: PackedState,
    bounds: Sequence[int],
    groupings: Sequence[Sequence[Sequence[int]]],
    tokens: Optional[Sequence[Hashable]] = None,
    new_token: Optional[Callable[[Dict[str, np.ndarray], int], Hashable]] = None,
) -> List[ReceiveRows]:
    """Algorithm 1 line 11 for every problem of one pooled block.

    Problem ``p`` owns pooled rows ``bounds[p]`` onwards and
    ``groupings[p]`` groups them (indices relative to its first row).
    Each group becomes one output row, in group order.  A singleton keeps
    its pooled row's bytes and token: merging one row is the identity
    under R4, and skipping the arithmetic means repeated gossip cannot
    accumulate float churn.  Every multi-member group of the block is
    merged in one ``merge_groups_columns`` call (which merges group by
    group, so no group's bytes depend on another's), and
    ``new_token(merged, row)`` names the merged rows in that order --
    problem by problem, group by group.  Quanta sum exactly as Python
    ints.  ``tokens`` names the pooled rows; without it the output has
    no tokens.
    """
    total = len(pooled)
    quanta_of = pooled.quanta.tolist().__getitem__
    multi: List[List[int]] = []
    sources: List[int] = []
    sums: List[int] = []
    sizes: List[int] = []
    cuts = [0]
    for base, groups in zip(bounds, groupings):
        for group in groups:
            if len(group) == 1:
                row = base + group[0]
                sources.append(row)
                sums.append(quanta_of(row))
            else:
                members = [base + member for member in group] if base else group
                sources.append(total + len(multi))
                multi.append(members)
                sums.append(sum(map(quanta_of, members)))
            sizes.append(len(group))
        cuts.append(len(sources))
    table = pooled.columns
    names = None if tokens is None else list(tokens)
    take_all: Optional[np.ndarray] = np.asarray(sources, dtype=np.intp)
    if multi:
        with span("scheme.merge_set"):
            merged = scheme.merge_groups_columns(pooled, multi)
        if names is not None:
            assert new_token is not None
            names.extend(new_token(merged, row) for row in range(len(multi)))
        if len(multi) == len(sources):
            # Every output row is a merged row, and merged rows are
            # numbered in output order: each problem's rows are a slice.
            table, take_all = merged, None
        else:
            table = {
                name: np.concatenate([column, merged[name]]) for name, column in table.items()
            }
    out_names = None if names is None else tuple(map(names.__getitem__, sources))
    quanta_all = np.array(sums, dtype=np.int64)
    group_sizes = tuple(sizes)
    out = []
    for low, high in zip(cuts[:-1], cuts[1:]):
        take = slice(low, high) if take_all is None else take_all[low:high]
        out.append(
            ReceiveRows(
                None if out_names is None else out_names[low:high],
                quanta_all[low:high],
                {name: column[take] for name, column in table.items()},
                group_sizes[low:high],
            )
        )
    return out


def solve_block(
    scheme: SummaryScheme,
    k: int,
    quantization: Quantization,
    pooled: PackedState,
    bounds: Sequence[int],
    outcomes: Sequence[ReceiveRows],
    tokens: Optional[Sequence[Hashable]] = None,
    new_token: Optional[Callable[[Dict[str, np.ndarray], int], Hashable]] = None,
    validate: bool = False,
) -> List[List[List[int]]]:
    """The full solve of every pooled set in one block, written into its outcome.

    Problem ``p`` pools rows ``bounds[p]:bounds[p+1]`` of ``pooled``;
    ``outcomes[p]`` is the :meth:`ReceiveRows.unsolved` instance queued
    for it, filled here in place.  One :func:`partition_pooled` call
    groups every problem (with ``validate``, each grouping is checked
    against Algorithm 1's rules before anything merges), and one
    :func:`merge_pooled` call builds every output row; ``tokens`` and
    ``new_token`` name rows as there.  Returns the groupings.
    """
    cuts = list(zip(bounds[:-1], bounds[1:]))

    def problem(low: int, high: int) -> PackedState:
        return PackedState(
            quanta=pooled.quanta[low:high],
            columns={name: rows[low:high] for name, rows in pooled.columns.items()},
        )

    # The problem views are dropped before the merge allocates its rows.
    groupings = partition_pooled(
        scheme, [problem(low, high) for low, high in cuts], k, quantization
    )
    if validate:
        for (low, high), groups in zip(cuts, groupings):
            validate_partition(groups, problem(low, high), k, quantization)
    solved = merge_pooled(scheme, pooled, bounds, groupings, tokens, new_token)
    for outcome, rows in zip(outcomes, solved):
        outcome.tokens = rows.tokens
        outcome.quanta = rows.quanta
        outcome.columns = rows.columns
        outcome.group_sizes = rows.group_sizes
        outcome.merges = rows.merges
    return groupings


# ----------------------------------------------------------------------
# A synchronous round's full solves on per-node receivers
# ----------------------------------------------------------------------
class PendingSolve:
    """One receiver's full solve, queued on a :class:`ReceiveBatch`.

    ``local`` and ``incoming`` are the pooled set's two parts;
    ``rows`` is the :meth:`ReceiveRows.unsolved` outcome the batch
    fills, and ``groups`` the grouping it found (``None`` until then).
    """

    __slots__ = ("local", "incoming", "rows", "groups")

    def __init__(self, local: PackedState, incoming: Any) -> None:
        self.local = local
        self.incoming = incoming
        self.rows = ReceiveRows.unsolved()
        self.groups: Optional[List[List[int]]] = None


class ReceiveBatch:
    """The full solves of a synchronous round's receives, solved together.

    In a round all sends precede all receives (Section 5.3), so the
    receives of one round are independent problems.  Each receiver
    decides its receive first and queues a full solve here
    (:meth:`queue`); :meth:`solve` then solves every queued problem of
    one scheme, ``k``, lattice and ``validate`` setting in one
    :func:`solve_block` call: a stack of several runs the scheme's
    ``partition_packed_batch``, a batch of one its scalar
    ``partition_packed``.  Problems whose rows carry digests (or aux
    rows) and problems whose rows do not are kept apart, so every output
    row is named exactly when a one-at-a-time solve would name it.

    A batch is local to the call that decides and completes its
    receives, and nothing outside it holds its rows, so a batch that
    raises leaves no outcome behind.
    """

    __slots__ = ("_queues",)

    def __init__(self) -> None:
        self._queues: Dict[Tuple[Any, ...], Tuple[SummaryScheme, List[PendingSolve]]] = {}

    def queue(
        self,
        scheme: SummaryScheme,
        k: int,
        quantization: Quantization,
        validate: bool,
        local: PackedState,
        incoming: Any,
    ) -> PendingSolve:
        """Queue the full solve pooling ``local`` with ``incoming``."""
        pending = PendingSolve(local, incoming)
        key = (
            id(scheme),
            k,
            quantization,
            validate,
            local.row_digests is not None and incoming.row_digests is not None,
            local.aux is not None,
        )
        entry = self._queues.get(key)
        if entry is None:
            entry = self._queues[key] = (scheme, [])
        entry[1].append(pending)
        return pending

    def solve(self) -> None:
        """Solve every queued problem and fill its :class:`PendingSolve`."""
        for (_, k, quantization, validate, _, _), (scheme, pending) in self._queues.items():
            parts: List[Any] = []
            bounds = [0]
            for item in pending:
                parts.append(item.local)
                parts.append(item.incoming)
                bounds.append(bounds[-1] + len(item.local) + len(item.incoming))
            pooled = PackedState.concat_many(parts)
            groupings = solve_block(
                scheme,
                k,
                quantization,
                pooled,
                bounds,
                [item.rows for item in pending],
                pooled.row_digests,
                scheme.digest_row,
                validate,
            )
            for item, groups in zip(pending, groupings):
                item.groups = groups
