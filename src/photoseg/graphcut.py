"""Energy-based fusion of the two candidate segmentations.

The agglomerative pass over-segments and the adaptive-window pass
under-segments; this module arbitrates between them. The union of their
boundaries induces a partition into atomic intervals, which double as the
label set. Each frame pays a unary cost for sitting in a label whose
candidate-segment centroid it does not resemble, and neighboring frames
pay a pairwise cost ``exp(-dist)`` whenever they disagree on the label,
so splitting between lookalike frames is expensive while splitting at a
genuine appearance change is nearly free.

Labelings are constrained to be non-decreasing along the stream, which
keeps the output an ordered segmentation and makes the radius-1 problem
an exact chain dynamic program rather than an approximate cut. Larger
neighborhood radii refine that exact solution with iterated conditional
modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_softmax

from .agglo import cosine_distance
from .datamodel import Segmentation, ValidationError
from .fusion import unit_rows


@dataclass(frozen=True)
class GcParams:
    """``unary_mix`` interpolates the two unary terms (0 = clustering only,
    1 = change-detector only); ``pairwise_weight`` scales the smoothing
    term; ``radius`` is the temporal neighborhood half-width.

    The defaults lean on the change detector's unary and full smoothing:
    the clustering side already shapes the label space itself, and its
    unary mostly reaffirms whatever cluster a frame was put in, so an even
    mix under-smooths spurious splits. Both weights are sweepable.
    """

    unary_mix: float = 0.85
    pairwise_weight: float = 1.0
    radius: int = 1
    softmax_temp: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.unary_mix <= 1.0:
            raise ValidationError(f"unary_mix must lie in [0, 1], got {self.unary_mix}")
        if not 0.0 <= self.pairwise_weight <= 1.0:
            raise ValidationError(
                f"pairwise_weight must lie in [0, 1], got {self.pairwise_weight}"
            )
        if self.radius < 1:
            raise ValidationError(f"radius must be >= 1, got {self.radius}")
        if self.softmax_temp <= 0:
            raise ValidationError(f"softmax_temp must be > 0, got {self.softmax_temp}")


@dataclass(frozen=True)
class LabelSpace:
    """Atomic intervals induced by the union of candidate boundaries.

    ``centroids_ac[l]`` / ``centroids_adw[l]`` hold the mean fused vector
    of the candidate segment containing atomic interval ``l``, one row per
    label.
    """

    atomic: Segmentation
    seg_ac: Segmentation
    seg_adw: Segmentation
    centroids_ac: np.ndarray
    centroids_adw: np.ndarray

    @property
    def num_labels(self) -> int:
        return self.atomic.num_segments


def build_label_space(seg_ac: Segmentation, seg_adw: Segmentation,
                      stream: np.ndarray) -> LabelSpace:
    """Intersect the two candidate partitions and attach per-method centroids."""
    rows = np.asarray(stream, dtype=np.float64)
    if seg_ac.n != seg_adw.n or seg_ac.n != rows.shape[0]:
        raise ValidationError(
            f"frame counts disagree: ac={seg_ac.n}, adwin={seg_adw.n}, stream={rows.shape[0]}"
        )
    atomic = Segmentation.from_boundaries(
        seg_ac.n, set(seg_ac.boundaries) | set(seg_adw.boundaries)
    )

    def method_centroids(seg: Segmentation) -> np.ndarray:
        seg_means = [rows[s:e + 1].mean(axis=0) for s, e in seg.segments()]
        lab = seg.labels()
        return np.asarray([seg_means[lab[start]] for start in atomic.starts])

    return LabelSpace(
        atomic=atomic,
        seg_ac=seg_ac,
        seg_adw=seg_adw,
        centroids_ac=method_centroids(seg_ac),
        centroids_adw=method_centroids(seg_adw),
    )


def _centroid_similarities(stream: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return unit_rows(stream) @ unit_rows(centroids).T


def unary_energies(ls: LabelSpace, stream: np.ndarray,
                   params: GcParams) -> tuple[np.ndarray, np.ndarray]:
    """Per frame and label, the negative log likelihood under each method.

    Likelihoods are a temperature softmax over cosine similarity between
    the frame and each label's candidate-segment centroid. Both returned
    (n, L) tables are finite.
    """
    rows = np.asarray(stream, dtype=np.float64)
    out = []
    for centroids in (ls.centroids_ac, ls.centroids_adw):
        sims = _centroid_similarities(rows, centroids)
        out.append(-log_softmax(sims / params.softmax_temp, axis=1))
    return out[0], out[1]


def pairwise_energy(f_i: np.ndarray, f_j: np.ndarray) -> float:
    """exp(-cosine_distance): large for lookalike frames, so a label change
    between them is costly; charged only across label disagreements."""
    return float(np.exp(-cosine_distance(f_i, f_j)))


def _neighbor_sizes(n: int, radius: int) -> np.ndarray:
    idx = np.arange(n)
    return np.minimum(idx, radius) + np.minimum(n - 1 - idx, radius)


def _pair_energies(stream: np.ndarray, radius: int) -> np.ndarray:
    """``out[i, radius + d] = pairwise_energy(stream[i], stream[i + d])`` for
    every ``0 < |d| <= radius`` inside the stream; other entries are 0.

    The rows are unit-scaled once and each band of products is summed row
    by row, the arithmetic :func:`pairwise_energy` does on one pair, so the
    values are bit-identical to per-pair calls. Each pair is stored in both
    directions (the elementwise product commutes exactly).
    """
    n = stream.shape[0]
    unit = unit_rows(stream)
    out = np.zeros((n, 2 * radius + 1))
    for d in range(1, min(radius, n - 1) + 1):
        out[:-d, radius + d] = out[d:, radius - d] = \
            np.exp(-(1.0 - (unit[:-d] * unit[d:]).sum(axis=1)))
    return out


def labeling_energy(labels: np.ndarray, unary_ac: np.ndarray, unary_adw: np.ndarray,
                    stream: np.ndarray, params: GcParams) -> float:
    """Full energy of a labeling: mixed unary plus neighborhood-averaged
    pairwise cost over every disagreeing pair within the radius."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    mixed = (1.0 - params.unary_mix) * unary_ac + params.unary_mix * unary_adw
    total = float(mixed[np.arange(n), labels].sum())
    if params.pairwise_weight == 0.0 or n == 1:
        return total
    radius = params.radius
    sizes = _neighbor_sizes(n, radius)
    pairs = _pair_energies(np.asarray(stream, dtype=np.float64), radius)
    pair = 0.0
    for i in range(n):
        lo = max(0, i - radius)
        hi = min(n - 1, i + radius)
        for j in range(lo, hi + 1):
            if j != i and labels[j] != labels[i]:
                pair += pairs[i, j - i + radius] / sizes[i]
    return total + params.pairwise_weight * pair


def _chain_optimum(mixed: np.ndarray, stream: np.ndarray, params: GcParams) -> np.ndarray:
    """Exact minimum-energy monotone labeling for a radius-1 neighborhood,
    whatever ``params.radius`` says: only ``pairwise_weight`` is read."""
    n, num_labels = mixed.shape
    if n == 1:
        return np.array([int(np.argmin(mixed[0]))])
    sizes = _neighbor_sizes(n, 1)
    adj = _pair_energies(stream, 1)[:-1, 2]
    # cost charged when frames i and i+1 disagree, summed over both
    # frames' neighborhood averages
    switch_cost = params.pairwise_weight * adj * (1.0 / sizes[:-1] + 1.0 / sizes[1:])

    labels_idx = np.arange(num_labels)
    cost = mixed[0].copy()
    back = np.zeros((n, num_labels), dtype=np.int64)
    back[0] = labels_idx
    # switching into label l comes from the best label below l; label 0
    # has none, so its switch cost stays inf
    switch = np.full(num_labels, np.inf)
    new_min = np.ones(num_labels, dtype=bool)
    from_label = np.zeros(num_labels, dtype=np.int64)
    for i in range(1, n):
        prefix_best = np.minimum.accumulate(cost)
        # the first label attaining each prefix minimum: the last strict
        # new minimum at or below it
        np.less(cost[1:], prefix_best[:-1], out=new_min[1:])
        prefix_arg = np.maximum.accumulate(np.where(new_min, labels_idx, 0))
        from_label[1:] = prefix_arg[:-1]
        np.add(prefix_best[:-1], switch_cost[i - 1], out=switch[1:])
        take_stay = cost <= switch
        back[i] = np.where(take_stay, labels_idx, from_label)
        cost = mixed[i] + np.where(take_stay, cost, switch)

    labels = np.zeros(n, dtype=np.int64)
    labels[-1] = int(np.argmin(cost))
    for i in range(n - 1, 0, -1):
        labels[i - 1] = back[i, labels[i]]
    return labels


def _icm_refine(labels: np.ndarray, mixed: np.ndarray, stream: np.ndarray,
                params: GcParams, max_sweeps: int = 50) -> np.ndarray:
    """Coordinate descent over frames, keeping the labeling monotone.

    Only the terms involving the updated frame change, so each move is
    scored by the local energy alone.
    """
    # plain Python lists: the scan reads single entries, where numpy
    # scalar indexing would dominate
    labels = labels.tolist()
    n = len(labels)
    radius = params.radius
    weight = params.pairwise_weight
    sizes = _neighbor_sizes(n, radius).tolist()
    pairs = _pair_energies(stream, radius).tolist()

    def local_energy(i: int, cand: int) -> float:
        e = float(mixed[i, cand])
        lo = max(0, i - radius)
        hi = min(n - 1, i + radius)
        for j in range(lo, hi + 1):
            if j != i and labels[j] != cand:
                e += weight * pairs[i][j - i + radius] * (1.0 / sizes[i] + 1.0 / sizes[j])
        return e

    for _ in range(max_sweeps):
        changed = False
        for i in range(n):
            lo = labels[i - 1] if i > 0 else 0
            hi = labels[i + 1] if i < n - 1 else mixed.shape[1] - 1
            if lo == hi:
                continue
            best_label = labels[i]
            best_energy = local_energy(i, best_label)
            for cand in range(lo, hi + 1):
                if cand == labels[i]:
                    continue
                e = local_energy(i, cand)
                if e < best_energy - 1e-12:
                    best_label, best_energy = cand, e
            if best_label != labels[i]:
                labels[i] = best_label
                changed = True
        if not changed:
            break
    return np.asarray(labels, dtype=np.int64)


def minimize_labels(ls: LabelSpace, unary_ac: np.ndarray, unary_adw: np.ndarray,
                    stream: np.ndarray, params: GcParams) -> np.ndarray:
    """Minimum-energy monotone labeling; exact for radius 1, ICM-refined
    from that optimum for larger radii.

    Both unary tables must be (n, num_labels) and finite; a NaN or inf
    entry raises :class:`ValidationError`.
    """
    rows = np.asarray(stream, dtype=np.float64)
    n = rows.shape[0]
    if unary_ac.shape != (n, ls.num_labels) or unary_adw.shape != (n, ls.num_labels):
        raise ValidationError("unary tables must be (n, num_labels)")
    if not (np.isfinite(unary_ac).all() and np.isfinite(unary_adw).all()):
        raise ValidationError("unary tables must be finite")
    mixed = (1.0 - params.unary_mix) * unary_ac + params.unary_mix * unary_adw
    labels = _chain_optimum(mixed, rows, params)
    if params.radius > 1:
        labels = _icm_refine(labels, mixed, rows, params)
    return labels


def minimize(ls: LabelSpace, unary_ac: np.ndarray, unary_adw: np.ndarray,
             stream: np.ndarray, params: GcParams) -> Segmentation:
    """Final fused segmentation: maximal runs of equal optimal labels."""
    labels = minimize_labels(ls, unary_ac, unary_adw, stream, params)
    return Segmentation.from_labels(labels)


def labeling_from_segmentation(seg: Segmentation, ls: LabelSpace) -> np.ndarray:
    """The monotone labeling a candidate segmentation induces on the label
    space: every frame takes the atomic interval that starts its segment."""
    atomic_index = {start: l for l, start in enumerate(ls.atomic.starts)}
    labels = np.zeros(seg.n, dtype=np.int64)
    for s, e in seg.segments():
        if s not in atomic_index:
            raise ValidationError(
                f"segment start {s} does not align with any atomic interval"
            )
        labels[s:e + 1] = atomic_index[s]
    return labels
