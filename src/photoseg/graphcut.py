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
keeps the output an ordered segmentation and makes the problem an exact
chain dynamic program at every neighborhood radius rather than an
approximate cut: a frame's cost against the frames before it depends only
on its label and on how long ago that label's run began.
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
    """Exact minimum-energy monotone labeling for any radius.

    In a monotone labeling, frames j < t disagree exactly when a switch
    falls in (j, t]. So frame t's cost against the frames before it
    depends only on its age a, the number of frames since its label's run
    began: it pays each pair at a distance d in (a, r], with
    r = min(radius, n - 1). Each label carries r states, ages 0 to r - 1.
    A switch into a higher label enters age 0 from the best state of any
    lower label, a stay ages the state by one, and age r - 1, past which
    a frame pays nothing more, absorbs. At radius 1 that is one state per
    label, paying the adjacent pair on a switch.
    """
    n, num_labels = mixed.shape
    if n == 1:
        return np.array([int(np.argmin(mixed[0]))])
    r = min(params.radius, n - 1)
    sizes = _neighbor_sizes(n, r)
    pairs = _pair_energies(stream, r)
    # term[t, d - 1]: the cost of frames t - d and t disagreeing, summed
    # over both frames' neighborhood averages; pay[t, a] sums it over d > a
    term = np.zeros((n, r))
    for d in range(1, r + 1):
        term[d:, d - 1] = params.pairwise_weight * pairs[d:, r - d] \
            * (1.0 / sizes[d:] + 1.0 / sizes[:-d])
    pay = np.cumsum(term[:, ::-1], axis=1)[:, ::-1]

    # the buffers below are filled in place, frame by frame
    cost = np.full((r, num_labels), np.inf)
    cost[0] = mixed[0]
    cand = np.empty_like(cost)
    # each label's best state; at radius 1, its only one
    best = cost[0] if r == 1 else np.empty(num_labels)
    prefix_best = np.empty(num_labels - 1)
    new_min = np.ones(num_labels - 1, dtype=bool)
    source_idx = np.arange(num_labels - 1)
    source = np.empty(num_labels - 1, dtype=np.int64)
    cost_young, cost_old = cost[:-1], cost[-1]
    cand_aged, cand_old, cand_switch = cand[1:], cand[-1], cand[0, 1:]
    pay_switch, pay_aged = pay[:, 0].tolist(), pay[:, 1:, None]
    # per frame: the state a switch into each label comes from, and
    # whether the absorbing state stayed
    back_label = np.zeros((n, num_labels), dtype=np.int64)
    back_age = np.zeros((n, num_labels), dtype=np.intp)
    stay = np.zeros((n, num_labels), dtype=bool)
    for t in range(1, n):
        if r > 1:
            cost.argmin(axis=0, out=back_age[t])
            cost.min(axis=0, out=best)
            np.add(cost_young, pay_aged[t], out=cand_aged)
        # a switch into label l comes from the best state below l, and
        # from the first label attaining that prefix minimum: the last
        # strict new minimum at or below it
        np.minimum.accumulate(best[:-1], out=prefix_best)
        np.less(best[1:-1], prefix_best[:-1], out=new_min[1:])
        np.multiply(new_min, source_idx, out=source)
        np.maximum.accumulate(source, out=back_label[t, 1:])
        # label 0 has no label below it to switch from (at radius 1 the
        # stay below writes this row)
        cand[0, 0] = np.inf
        np.add(prefix_best, pay_switch[t], out=cand_switch)
        np.less_equal(cost_old, cand_old, out=stay[t])
        np.copyto(cand_old, cost_old, where=stay[t])
        np.add(cand, mixed[t], out=cost)

    # walk back: an absorbing state that stayed kept its state, age 0 came
    # from a switch, and any other age from the age below it
    labels = np.zeros(n, dtype=np.int64)
    age, label = divmod(int(np.argmin(cost)), num_labels)
    for t in range(n - 1, 0, -1):
        labels[t] = label
        if age == r - 1 and stay[t, label]:
            continue
        if age == 0:
            label = int(back_label[t, label])
            age = int(back_age[t, label])
        else:
            age -= 1
    labels[0] = label
    return labels


def minimize_labels(ls: LabelSpace, unary_ac: np.ndarray, unary_adw: np.ndarray,
                    stream: np.ndarray, params: GcParams) -> np.ndarray:
    """Minimum-energy monotone labeling, exact at every radius.

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
    return _chain_optimum(mixed, rows, params)


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
