"""Provenance-based classification accuracy against ground-truth labels.

The auxiliary mixture vectors record exactly how much of each input
value's weight sits in each collection, so when the workload has known
class labels (synthetic generators return them) a node's classification
quality can be scored as *correctly assigned weight*: build the
collection-by-class weight matrix, find the best one-to-one matching of
collections to classes (Hungarian assignment), and report the matched
weight share.

This generalises clustering accuracy to the algorithm's weighted,
fractional setting — a value can be split across collections, and each
fragment is scored where it actually sits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.classification import Classification
from repro.core.node import ClassifierNode

__all__ = [
    "weight_confusion_matrix",
    "classification_accuracy",
    "mean_node_accuracy",
]


def weight_confusion_matrix(
    classification: Classification,
    labels: np.ndarray,
) -> np.ndarray:
    """Collections-by-classes weight matrix from auxiliary provenance.

    Entry ``(j, c)`` is the quanta of class-``c`` input weight held by
    collection ``j``.  Requires a run with ``track_aux=True``.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.min() < 0:
        raise ValueError("labels must be non-negative integers")
    n_classes = int(labels.max()) + 1
    class_indices = [np.where(labels == c)[0] for c in range(n_classes)]
    matrix = np.zeros((len(classification), n_classes))
    for j, collection in enumerate(classification):
        if collection.aux is None:
            raise ValueError("weight_confusion_matrix requires auxiliary tracking")
        if collection.aux.n_inputs != labels.shape[0]:
            raise ValueError("labels must cover every input value")
        for c in range(n_classes):
            matrix[j, c] = float(np.sum(collection.aux.components[class_indices[c]]))
    return matrix


def classification_accuracy(
    classification: Classification,
    labels: np.ndarray,
) -> float:
    """Best-matching correctly-assigned weight share in ``[0, 1]``.

    Collections are matched one-to-one to classes by maximising the
    matched weight (Hungarian assignment on the confusion matrix); weight
    in unmatched collections, or matched to the wrong class, counts as
    incorrect.  Perfect classification (each class exactly one
    collection) scores 1.
    """
    matrix = weight_confusion_matrix(classification, labels)
    total = matrix.sum()
    if total <= 0:
        raise ValueError("classification carries no weight")
    from scipy.optimize import linear_sum_assignment  # scipy.optimize is slow to import

    rows, cols = linear_sum_assignment(-matrix)
    return float(matrix[rows, cols].sum()) / float(total)


def mean_node_accuracy(
    nodes: Sequence[ClassifierNode],
    labels: np.ndarray,
) -> float:
    """Average :func:`classification_accuracy` across nodes."""
    if not nodes:
        raise ValueError("need at least one node")
    return float(
        np.mean([classification_accuracy(node.classification, labels) for node in nodes])
    )
