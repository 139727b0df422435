"""Wire serialisation of collections and classifications.

The paper's setting — "sensor networks use lightweight nodes with minimal
hardware" — makes message size a first-class concern, and its related-work
section argues that this algorithm's messages depend only on the dataset
parameters (``k``, the value dimension), never on the network size ``n``.
To make that claim *measurable* rather than rhetorical, this module
provides a compact binary wire format for message payloads:

- a :class:`SummaryCodec` per summary type (centroid vectors, weighted
  Gaussians, histograms), each a fixed-size struct-packed record;
- :func:`encode_payload` / :func:`decode_payload` for whole messages
  (lists of collections, as produced by ``make_message``).

The benchmark ``test_ablation_message_size`` serialises real payloads at
several network sizes and checks the byte counts are identical — the
paper's independence claim, in bytes.

Auxiliary mixture vectors are deliberately *not* serialised: they are
proof/measurement machinery of size O(n), exactly what a real deployment
would never ship.
"""

from __future__ import annotations

import abc
import struct
from typing import Any, Sequence

import numpy as np

from repro.core.collection import Collection
from repro.obs.profiling import span

__all__ = [
    "SummaryCodec",
    "CentroidCodec",
    "DiagonalGaussianCodec",
    "GaussianCodec",
    "HistogramCodec",
    "encode_payload",
    "decode_payload",
    "payload_size_bytes",
    "codec_for_scheme",
]

#: Wire format version, first byte of every message.
_WIRE_VERSION = 1

#: Header: version (B), codec id (B), collection count (H).
_HEADER = struct.Struct("!BBH")

#: Per-collection prefix: weight in quanta (Q = unsigned 64-bit).
_WEIGHT = struct.Struct("!Q")


class SummaryCodec(abc.ABC):
    """Binary codec for one summary type.

    Codecs are *fixed-size*: every summary of a given scheme configuration
    encodes to the same number of bytes, which is what makes message sizes
    predictable (and checkable) on constrained radios.
    """

    #: One-byte identifier written into the message header.
    codec_id: int

    @abc.abstractmethod
    def summary_size(self) -> int:
        """Encoded size of one summary, in bytes."""

    @abc.abstractmethod
    def encode_summary(self, summary: Any) -> bytes:
        """Serialise one summary to exactly ``summary_size()`` bytes."""

    @abc.abstractmethod
    def decode_summary(self, blob: bytes) -> Any:
        """Inverse of :meth:`encode_summary`."""


class CentroidCodec(SummaryCodec):
    """Centroid summaries: ``d`` float64s."""

    codec_id = 1

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def summary_size(self) -> int:
        return 8 * self.dimension

    def encode_summary(self, summary: Any) -> bytes:
        array = np.asarray(summary, dtype=">f8")
        if array.shape != (self.dimension,):
            raise ValueError(
                f"centroid has shape {array.shape}, codec expects ({self.dimension},)"
            )
        return array.tobytes()

    def decode_summary(self, blob: bytes) -> np.ndarray:
        return np.frombuffer(blob, dtype=">f8").astype(float)


class GaussianCodec(SummaryCodec):
    """Weighted-Gaussian summaries: mean (d floats) + the upper triangle
    of the symmetric covariance (d(d+1)/2 floats)."""

    codec_id = 2

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._triangle = [(i, j) for i in range(dimension) for j in range(i, dimension)]

    def summary_size(self) -> int:
        return 8 * (self.dimension + len(self._triangle))

    def encode_summary(self, summary: Any) -> bytes:
        from repro.schemes.gaussian import GaussianSummary

        if not isinstance(summary, GaussianSummary):
            raise TypeError(f"expected GaussianSummary, got {type(summary).__name__}")
        if summary.dimension != self.dimension:
            raise ValueError(
                f"summary dimension {summary.dimension} != codec dimension {self.dimension}"
            )
        upper = np.array([summary.cov[i, j] for i, j in self._triangle])
        return np.concatenate([summary.mean, upper]).astype(">f8").tobytes()

    def decode_summary(self, blob: bytes) -> Any:
        from repro.schemes.gaussian import GaussianSummary

        flat = np.frombuffer(blob, dtype=">f8").astype(float)
        mean = flat[: self.dimension]
        cov = np.zeros((self.dimension, self.dimension))
        for value, (i, j) in zip(flat[self.dimension :], self._triangle):
            cov[i, j] = value
            cov[j, i] = value
        return GaussianSummary(mean=mean, cov=cov)


class DiagonalGaussianCodec(SummaryCodec):
    """Diagonal-Gaussian summaries: mean (d floats) + d variances.

    The lightweight-sensor wire format: O(d) instead of O(d^2) per
    collection (see :mod:`repro.schemes.diagonal`).
    """

    codec_id = 4

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def summary_size(self) -> int:
        return 8 * 2 * self.dimension

    def encode_summary(self, summary: Any) -> bytes:
        from repro.schemes.gaussian import GaussianSummary

        if not isinstance(summary, GaussianSummary):
            raise TypeError(f"expected GaussianSummary, got {type(summary).__name__}")
        if summary.dimension != self.dimension:
            raise ValueError(
                f"summary dimension {summary.dimension} != codec dimension {self.dimension}"
            )
        variances = np.diag(summary.cov)
        return np.concatenate([summary.mean, variances]).astype(">f8").tobytes()

    def decode_summary(self, blob: bytes) -> Any:
        from repro.schemes.gaussian import GaussianSummary

        flat = np.frombuffer(blob, dtype=">f8").astype(float)
        mean = flat[: self.dimension]
        cov = np.diag(flat[self.dimension :])
        return GaussianSummary(mean=mean, cov=cov)


class HistogramCodec(SummaryCodec):
    """Histogram summaries: ``bins`` float64 proportions."""

    codec_id = 3

    def __init__(self, bins: int) -> None:
        if bins < 2:
            raise ValueError("need at least 2 bins")
        self.bins = bins

    def summary_size(self) -> int:
        return 8 * self.bins

    def encode_summary(self, summary: Any) -> bytes:
        array = np.asarray(summary, dtype=">f8")
        if array.shape != (self.bins,):
            raise ValueError(f"histogram has shape {array.shape}, codec expects ({self.bins},)")
        return array.tobytes()

    def decode_summary(self, blob: bytes) -> np.ndarray:
        return np.frombuffer(blob, dtype=">f8").astype(float)


def encode_payload(payload: Sequence[Collection], codec: SummaryCodec) -> bytes:
    """Serialise a message payload (the output of ``make_message``).

    Layout: header (version, codec id, count) then, per collection, the
    weight in quanta followed by the fixed-size summary record.
    """
    if len(payload) > 0xFFFF:
        raise ValueError("payload too large for the wire format")
    with span("wire.serialize"):
        chunks = [_HEADER.pack(_WIRE_VERSION, codec.codec_id, len(payload))]
        for collection in payload:
            chunks.append(_WEIGHT.pack(collection.quanta))
            chunks.append(codec.encode_summary(collection.summary))
        return b"".join(chunks)


def decode_payload(blob: bytes, codec: SummaryCodec) -> list[Collection]:
    """Inverse of :func:`encode_payload`."""
    version, codec_id, count = _HEADER.unpack_from(blob, 0)
    if version != _WIRE_VERSION:
        raise ValueError(f"unsupported wire version {version}")
    if codec_id != codec.codec_id:
        raise ValueError(f"message encoded with codec {codec_id}, decoder is {codec.codec_id}")
    offset = _HEADER.size
    record = codec.summary_size()
    collections = []
    for _ in range(count):
        (quanta,) = _WEIGHT.unpack_from(blob, offset)
        offset += _WEIGHT.size
        summary = codec.decode_summary(blob[offset : offset + record])
        offset += record
        collections.append(Collection(summary=summary, quanta=quanta))
    if offset != len(blob):
        raise ValueError(f"trailing bytes in message ({len(blob) - offset})")
    return collections


def payload_size_bytes(n_collections: int, codec: SummaryCodec) -> int:
    """Exact wire size of a payload with ``n_collections`` collections.

    The formula the paper's message-size claim reduces to: header +
    ``n_collections * (8 + summary_size)`` — a function of ``k`` and the
    summary dimension only, never of the network size.
    """
    return _HEADER.size + n_collections * (_WEIGHT.size + codec.summary_size())


def codec_for_scheme(scheme: Any, dimension: int) -> SummaryCodec:
    """Pick the right codec for one of the shipped schemes."""
    from repro.schemes.centroid import CentroidScheme
    from repro.schemes.diagonal import DiagonalGaussianScheme
    from repro.schemes.gm import GaussianMixtureScheme
    from repro.schemes.histogram import HistogramScheme

    # Subclasses first: a histogram scheme is a centroid scheme over one-hot
    # bins, and the diagonal scheme a GM scheme with a projected merge.
    if isinstance(scheme, HistogramScheme):
        return HistogramCodec(scheme.bins)
    if isinstance(scheme, CentroidScheme):
        return CentroidCodec(dimension)
    if isinstance(scheme, DiagonalGaussianScheme):
        return DiagonalGaussianCodec(dimension)
    if isinstance(scheme, GaussianMixtureScheme):
        return GaussianCodec(dimension)
    raise TypeError(f"no codec registered for scheme {type(scheme).__name__}")
