"""Batched numpy kernels for the receive/merge inner loop.

The gossip hot path spends its time in three primitives: the hard-EM
reduction behind :mod:`repro.ml.reduction`, the greedy closest-pair
partition behind :mod:`repro.schemes`, and the packed merge/quanta
arithmetic of :mod:`repro.core.receive`, the receive step
:class:`repro.core.node.ClassifierNode` and :class:`repro.mega.ReceiveSolver`
share.  :mod:`repro.native.kernels` hosts
batched numpy kernels for all three, each byte-identical to the
unbatched reference it replaces; ``tests/native/test_kernels.py`` pins
every one.
"""
