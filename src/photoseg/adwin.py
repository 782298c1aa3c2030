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

:func:`detect_changes` scans a whole stream in one call. It validates the
array once, then replays the arrivals in order over one buffer of window
prefix sums: each arrival appends one row of sums, and a boundary drops
the window's older part and rebuilds the sums of what is left.
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
    m = np.asarray(m, dtype=np.float64)
    log_term = _log_term(dim, delta_prime)
    if log_term <= 0.0:
        return np.full(np.shape(m), np.inf)
    return dim ** (1.0 / p) * np.sqrt(log_term / (2.0 * m))


def _log_term(dim: int, delta_prime: float) -> float:
    """``log(4 / (dim * delta_prime))``. A product that underflows to 0,
    as ``delta / w`` does for a ``delta`` below the float range over the
    window, gives the term's limit, +inf: an infinite threshold, no split."""
    scaled = dim * delta_prime
    return math.log(4.0 / scaled) if scaled else math.inf


def _best_split(prefix: np.ndarray, dim: int, params: AdwinParams):
    """Admissible split of the window whose prefix sums are ``prefix``
    with the largest bound violation, or None.

    When several splits exceed their threshold the one with the most
    evidence (largest gap minus threshold, earliest on ties) wins;
    this pins the boundary to the sharpest mean shift instead of the
    oldest split that barely clears the bound. A window whose bound is
    vacuous (every threshold infinite, see :func:`epsilon_cut`) returns
    None before any array work, since the gaps of [0, 1] data are finite.
    """
    ms = params.min_subwindow
    w = prefix.shape[0]
    if w < 2 * ms or _log_term(dim, params.delta / w) <= 0.0:
        return None
    p = params.p
    splits = np.arange(ms, w - ms + 1)
    n1 = splits.astype(np.float64)
    n2 = w - n1
    mean_old = prefix[splits - 1] / n1[:, None]
    mean_new = (prefix[-1] - prefix[splits - 1]) / n2[:, None]
    gaps = (np.abs(mean_old - mean_new) ** p).sum(axis=1) ** (1.0 / p)
    harmonic = 2.0 * n1 * n2 / (n1 + n2)
    threshold = epsilon_cut(harmonic, dim, params.delta / w, p)
    violation = gaps - threshold
    best = int(np.argmax(violation))
    if violation[best] <= 0.0:
        return None
    return int(splits[best])


def detect_changes(stream: np.ndarray, params: AdwinParams | None = None) -> Segmentation:
    """Scan a full (n, k) stream with entries in [0, 1] for mean shifts;
    an entry outside it, NaN included, raises :class:`ValidationError`
    naming the first such frame."""
    params = params or AdwinParams()
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValidationError("expected a non-empty (n, k) stream")
    in_range = ((arr >= 0.0) & (arr <= 1.0)).all(axis=1)
    if not in_range.all():
        raise ValidationError(
            f"frame {int(np.argmin(in_range))}: entries outside [0, 1] or NaN, "
            "rescale the stream first"
        )
    n, dim = arr.shape
    # prefix[:w] holds the running sums of the window arr[start:t + 1];
    # rows past the longest window are never written, so never touched
    prefix = np.empty_like(arr)
    prefix[0] = arr[0]
    boundaries: list[int] = []
    start = 0
    for t in range(1, n):      # a one-frame window has no admissible split
        w = t + 1 - start
        prefix[w - 1] = prefix[w - 2] + arr[t]
        while (split := _best_split(prefix[:w], dim, params)) is not None:
            start += split
            boundaries.append(start)
            w -= split
            # same sequential sums as the per-row updates, so same bits;
            # then the same arrival is scanned again on the shorter window
            np.cumsum(arr[start:t + 1], axis=0, out=prefix[:w])
    return Segmentation.from_boundaries(n, boundaries)


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
