"""Adaptive-windowing change detection over a bounded multivariate stream.

The detector keeps a growing window of recent frames. After every arrival
it checks each admissible split of the window into an older part W1 and a
newer part W2: if the p-norm gap between their mean vectors exceeds a
Hoeffding-style threshold, everything before the split is dropped and the
split index is recorded as a segment boundary. Long stationary stretches
therefore accumulate statistical power, while a genuine mean shift evicts
the stale half of the window.

The split scan is exhaustive, which is quadratic overall but exact; the
classic bucket-compressed variant trades that exactness for speed and is
not needed at the scale of day-long photo streams.

Detectors are stateful sequential machines: one instance per stream.
Distinct streams may run concurrently with independent instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Segmentation, ValidationError


@dataclass(frozen=True)
class AdwinParams:
    """``delta`` is the false-positive confidence knob in (0, 1); ``p`` the
    norm order used for the mean gap; ``min_subwindow`` the smallest
    sub-window length the scan will test."""

    delta: float = 0.1
    p: int = 2
    min_subwindow: int = 1

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must lie in (0, 1), got {self.delta}")
        if self.p < 1:
            raise ValidationError(f"norm order must be >= 1, got {self.p}")
        if self.min_subwindow < 1:
            raise ValidationError(f"min_subwindow must be >= 1, got {self.min_subwindow}")


def epsilon_cut(m: float | np.ndarray, dim: int, delta_prime: float, p: int):
    """Mean-gap threshold for sub-windows with harmonic-mean length ``m``.

    ``dim`` is the stream dimension. When ``dim * delta_prime >= 4`` the
    log term turns negative and the concentration bound is vacuous: no gap
    is statistically significant at that confidence, so the threshold is
    infinite and the split simply cannot fire.
    """
    log_term = math.log(4.0 / (dim * delta_prime))
    if log_term <= 0.0:
        return np.inf * np.ones_like(np.asarray(m, dtype=np.float64))
    return dim ** (1.0 / p) * np.sqrt(log_term / (2.0 * np.asarray(m, dtype=np.float64)))


class AdwinDetector:
    """Streaming form of the detector. Feed frames with :meth:`add`."""

    def __init__(self, params: AdwinParams | None = None):
        self.params = params or AdwinParams()
        self._window: list[np.ndarray] = []
        self._start = 0      # global index of the first frame in the window
        self._count = 0      # frames seen so far
        self.boundaries: list[int] = []

    def add(self, row: np.ndarray) -> list[int]:
        """Consume one frame; returns boundaries fired by this arrival."""
        row = np.atleast_1d(np.asarray(row, dtype=np.float64))
        if not ((row >= 0.0) & (row <= 1.0)).all():
            raise ValidationError(
                f"frame {self._count}: entries outside [0, 1] or NaN, rescale the stream first"
            )
        self._window.append(row)
        self._count += 1
        fired: list[int] = []
        while True:
            split = self._scan()
            if split is None:
                break
            boundary = self._start + split
            fired.append(boundary)
            self.boundaries.append(boundary)
            self._window = self._window[split:]
            self._start = boundary
        return fired

    def _scan(self):
        """Admissible split with the largest bound violation, or None.

        When several splits exceed their threshold the one with the most
        evidence (largest gap minus threshold, earliest on ties) wins;
        this pins the boundary to the sharpest mean shift instead of the
        oldest split that barely clears the bound.
        """
        ms = self.params.min_subwindow
        w = len(self._window)
        if w < 2 * ms:
            return None
        p = self.params.p
        dim = self._window[0].shape[0]
        arr = np.asarray(self._window)
        prefix = np.cumsum(arr, axis=0)
        splits = np.arange(ms, w - ms + 1)
        n1 = splits.astype(np.float64)
        n2 = w - n1
        mean_old = prefix[splits - 1] / n1[:, None]
        mean_new = (prefix[-1] - prefix[splits - 1]) / n2[:, None]
        gaps = (np.abs(mean_old - mean_new) ** p).sum(axis=1) ** (1.0 / p)
        harmonic = 2.0 * n1 * n2 / (n1 + n2)
        delta_prime = self.params.delta / w
        threshold = epsilon_cut(harmonic, dim, delta_prime, p)
        violation = gaps - threshold
        best = int(np.argmax(violation))
        if violation[best] <= 0.0:
            return None
        return int(splits[best])

    def segmentation(self) -> Segmentation:
        if self._count == 0:
            raise ValidationError("empty stream")
        return Segmentation.from_boundaries(self._count, self.boundaries)


def detect_changes(stream: np.ndarray, params: AdwinParams | None = None) -> Segmentation:
    """Run the detector over a full (n, k) stream with entries in [0, 1];
    an entry outside it, NaN included, raises :class:`ValidationError`."""
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValidationError("expected a non-empty (n, k) stream")
    detector = AdwinDetector(params)
    for row in arr:
        detector.add(row)
    return detector.segmentation()


def rescale_to_unit(stream: np.ndarray) -> np.ndarray:
    """Min-max rescale each column to [0, 1]; constant columns map to 0.5."""
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValidationError("expected a non-empty (n, k) stream")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = hi - lo
    out = np.full_like(arr, 0.5)
    nz = span > 0
    out[:, nz] = (arr[:, nz] - lo[nz]) / span[nz]
    return out
