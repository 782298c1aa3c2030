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

from .agglo import cosine_distance
from .datamodel import Segmentation, ValidationError, _held
from .fusion import BLOCK_ROWS, slice_means, unit_rows


# the coldest softmax: similarities lie in [-1, 1], so a unary is at most
# 2 / softmax_temp + log(labels), and at 1e-300 the chain sums them finitely
# over ~9e7 frames, past any day whose n x n agglomeration matrix fits in memory
MIN_SOFTMAX_TEMP = 1e-300


@dataclass(frozen=True)
class GcParams:
    """``unary_mix`` interpolates the two unary terms (0 = clustering only,
    1 = change-detector only); ``pairwise_weight`` scales the smoothing
    term; ``radius`` is the temporal neighborhood half-width;
    ``softmax_temp``, at least 1e-300 (``MIN_SOFTMAX_TEMP``), divides the
    similarities before the unaries' softmax.

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
        if not self.softmax_temp >= MIN_SOFTMAX_TEMP:
            raise ValidationError(
                f"softmax_temp must be >= {MIN_SOFTMAX_TEMP:g}, got {self.softmax_temp}")


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
        starts = np.asarray(seg.starts)
        seg_means = slice_means(rows, starts, np.append(starts[1:], seg.n))
        return seg_means[seg.labels()[list(atomic.starts)]]

    return LabelSpace(
        atomic=atomic,
        seg_ac=seg_ac,
        seg_adw=seg_adw,
        centroids_ac=method_centroids(seg_ac),
        centroids_adw=method_centroids(seg_adw),
    )


def _log_softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log softmax, bit for bit ``scipy.special.log_softmax(x, axis=1)``.

    Each row is shifted by its maximum (by 0 where that is not finite), so
    large logits cannot overflow ``exp``. The result goes to ``out``
    (which may be ``x``) or to a new array, and the rows are taken
    ``BLOCK_ROWS`` at a time, so the temporaries stay that small.
    """
    out = np.empty_like(x) if out is None else out
    for lo in range(0, x.shape[0], BLOCK_ROWS):
        block, shifted = x[lo:lo + BLOCK_ROWS], out[lo:lo + BLOCK_ROWS]
        top = np.amax(block, axis=1, keepdims=True)
        top[~np.isfinite(top)] = 0
        np.subtract(block, top, out=shifted)
        with np.errstate(divide="ignore"):
            shifted -= np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    return out


def unary_energies(ls: LabelSpace, stream: np.ndarray,
                   params: GcParams) -> tuple[np.ndarray, np.ndarray]:
    """Per frame and label, the negative log likelihood under each method.

    Likelihoods are a temperature softmax over cosine similarity between
    the frame and each label's candidate-segment centroid. Both returned
    (n, L) tables are finite. Each table is computed in place in the
    similarity matrix, the arithmetic of ``-_log_softmax(sims / temp)``.
    """
    unit = unit_rows(stream)
    out = []
    for centroids in (ls.centroids_ac, ls.centroids_adw):
        table = unit @ unit_rows(centroids).T
        table /= params.softmax_temp
        np.negative(_log_softmax(table, out=table), out=table)
        out.append(table)
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

    The rows are unit-scaled and each band of products is summed row by
    row, the arithmetic :func:`pairwise_energy` does on one pair, so the
    values are bit-identical to per-pair calls. This goes ``BLOCK_ROWS``
    frames at a time, each block with the ``radius`` frames after it, so
    no temporary holds the whole stream. Each pair is stored in both
    directions (the elementwise product commutes exactly).
    """
    n = stream.shape[0]
    out = np.zeros((n, 2 * radius + 1))
    for lo in range(0, n - 1, BLOCK_ROWS):
        unit = unit_rows(stream[lo:lo + BLOCK_ROWS + radius])
        for d in range(1, min(radius, unit.shape[0] - 1) + 1):
            # the pairs (i, i + d) for the block's frames i that have one
            m = min(BLOCK_ROWS, unit.shape[0] - d)
            out[lo:lo + m, radius + d] = out[lo + d:lo + d + m, radius - d] = \
                np.exp(-(1.0 - (unit[:m] * unit[d:d + m]).sum(axis=1)))
    return out


def _mixed_unary(unary_ac: np.ndarray, unary_adw: np.ndarray, mix: float) -> np.ndarray:
    """``(1 - mix) * unary_ac + mix * unary_adw`` in one new table: the
    second product is added ``BLOCK_ROWS`` rows at a time."""
    mixed = np.multiply(unary_ac, 1.0 - mix)
    for lo in range(0, mixed.shape[0], BLOCK_ROWS):
        mixed[lo:lo + BLOCK_ROWS] += mix * unary_adw[lo:lo + BLOCK_ROWS]
    return mixed


def labeling_energy(labels: np.ndarray, unary_ac: np.ndarray, unary_adw: np.ndarray,
                    stream: np.ndarray, params: GcParams) -> float:
    """Full energy of a labeling: mixed unary plus neighborhood-averaged
    pairwise cost over every disagreeing pair within the radius."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    mixed = _mixed_unary(unary_ac, unary_adw, params.unary_mix)
    total = float(mixed[np.arange(n), labels].sum())
    if params.pairwise_weight == 0.0 or n == 1:
        return total
    radius = params.radius
    sizes = _neighbor_sizes(n, radius)
    pairs = _pair_energies(np.asarray(stream, dtype=np.float64), radius)
    # j = i + d for every offset d of the pair table's columns
    j = np.arange(n)[:, None] + np.arange(-radius, radius + 1)
    inside = (j >= 0) & (j < n)
    disagree = inside & (labels[np.where(inside, j, 0)] != labels[:, None])
    # the mask gathers row-major, pair (i, j) after every pair of an
    # earlier i, and cumsum adds left to right as a loop would; np.sum
    # adds pairwise, which changes the last bits
    terms = (pairs / sizes[:, None])[disagree]
    pair = np.cumsum(terms)[-1] if terms.size else 0.0
    return total + params.pairwise_weight * pair


def _chain_optimum(mixed: np.ndarray, stream: np.ndarray, params: GcParams,
                   pair_tables: dict | None = None) -> np.ndarray:
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

    ``pair_tables`` maps r to this stream's :func:`_pair_energies` table,
    looked up or built by :func:`~photoseg.datamodel._held`.
    """
    n, num_labels = mixed.shape
    if n == 1:
        return np.array([int(np.argmin(mixed[0]))])
    r = min(params.radius, n - 1)
    sizes = _neighbor_sizes(n, r)
    pairs = _held(pair_tables, r, _pair_energies, stream, r)
    # term[t, d - 1]: the cost of frames t - d and t disagreeing, summed
    # over both frames' neighborhood averages; pay[t, a] sums it over d > a
    term = np.zeros((n, r))
    for d in range(1, r + 1):
        term[d:, d - 1] = params.pairwise_weight * pairs[d:, r - d] \
            * (1.0 / sizes[d:] + 1.0 / sizes[:-d])
    pay = np.cumsum(term[:, ::-1], axis=1)[:, ::-1]

    # cost[a, l], the best cost of label l at age a, is updated in place
    # frame by frame, and the switches into label l > 0 go to cost[0, l]
    cost = np.full((r, num_labels), np.inf)
    cost[0] = mixed[0]
    # views made once, not once per frame
    ages = list(cost)
    cost_switch = cost[0, 1:]
    prefix_best = np.empty(num_labels - 1)
    prefix_low = prefix_best[:-1]
    pay_switch = pay[:, 0].tolist()
    # per frame: which labels hold a strict new minimum of the best
    # states below the next label (label 0 always does), the first best
    # age of each label (at radius 1, always 0) in the smallest unsigned
    # type that holds r - 1, and whether the absorbing state stayed
    new_min = np.empty((n, num_labels - 1), dtype=bool)
    new_min[:, :1] = True
    stay = np.zeros((n, num_labels), dtype=bool)
    if r > 1:
        best = np.empty(num_labels)
        back_age = np.zeros((n, num_labels), dtype=np.min_scalar_type(r - 1))
        # one-byte ages take the comparison as bool bytes; wider ones cast it
        back_older = back_age.view(bool) if back_age.itemsize == 1 else back_age
        older = np.empty(num_labels, dtype=bool)
        # the absorbing state is entered by aging the state below it
        enter, pay_enter, kept, stay_kept = ages[-2], pay[:, -1].tolist(), ages[-1], stay
        cost_mid, cost_mid_src, pay_mid = cost[1:-1], cost[:-2], pay[:, 1:-1, None]
    else:
        # each label's one state is its best and absorbs, entered by a switch
        best, back_age = ages[0], None
        enter, pay_enter, kept, stay_kept = prefix_best, pay_switch, cost_switch, stay[:, 1:]
        stay[:, 0] = True  # label 0 always stays
    best_low, best_mid = best[:-1], best[1:-1]
    for t in range(1, n):
        if r > 1:
            # an older age wins only when strictly less: argmin's first minimum
            np.less(ages[1], ages[0], out=back_older[t])
            np.minimum(ages[0], ages[1], out=best)
            for a in range(2, r):
                np.less(ages[a], best, out=older)
                np.copyto(back_age[t], a, where=older)
                np.minimum(best, ages[a], out=best)
        # a switch into label l comes from the best state below l
        np.minimum.accumulate(best_low, out=prefix_best)
        np.less(best_mid, prefix_low, out=new_min[t, 1:])
        # the absorbing state keeps the cheaper of staying and entering
        enter += pay_enter[t]
        np.less_equal(kept, enter, out=stay_kept[t])
        np.minimum(kept, enter, out=kept)
        if r > 1:
            # every other state ages by one; label 0 has no age 0 to enter
            if r > 2:
                np.add(cost_mid_src, pay_mid[t], out=cost_mid)
            np.add(prefix_best, pay_switch[t], out=cost_switch)
            cost[0, 0] = np.inf
        cost += mixed[t]

    # walk back: an absorbing state that stayed kept its state, and any
    # other age came from the age below it, or at age 0 from a switch.
    # A switch into a label comes from the first label attaining the
    # prefix minimum below it: the last strict new minimum below it.
    labels = []
    age, label = divmod(int(np.argmin(cost)), num_labels)
    for t in range(n - 1, 0, -1):
        labels.append(label)
        if age == r - 1 and stay[t, label]:
            continue
        if age == 0:
            # the last True (byte 1) below the label, which exists: a
            # switch at frame t > 0 enters a label above 0, and label 0
            # is always a new minimum
            label = new_min[t, :label].tobytes().rfind(1)
            age = int(back_age[t, label]) if r > 1 else 0
        else:
            age -= 1
    labels.append(label)
    return np.array(labels[::-1], dtype=np.int64)


def minimize_labels(ls: LabelSpace, unary_ac: np.ndarray, unary_adw: np.ndarray,
                    stream: np.ndarray, params: GcParams, *,
                    pair_tables: dict | None = None) -> np.ndarray:
    """Minimum-energy monotone labeling, exact at every radius.

    Both unary tables must be (n, num_labels) and finite; a NaN or inf
    entry raises :class:`ValidationError`. ``pair_tables`` is an optional
    caller-owned dict of this stream's pair-energy tables by effective
    radius, looked up or built by :func:`~photoseg.datamodel._held`.
    """
    rows = np.asarray(stream, dtype=np.float64)
    n = rows.shape[0]
    if unary_ac.shape != (n, ls.num_labels) or unary_adw.shape != (n, ls.num_labels):
        raise ValidationError("unary tables must be (n, num_labels)")
    if not (np.isfinite(unary_ac).all() and np.isfinite(unary_adw).all()):
        raise ValidationError("unary tables must be finite")
    return _chain_optimum(_mixed_unary(unary_ac, unary_adw, params.unary_mix), rows, params,
                          pair_tables)


def minimize(ls: LabelSpace, unary_ac: np.ndarray, unary_adw: np.ndarray,
             stream: np.ndarray, params: GcParams, *,
             pair_tables: dict | None = None) -> Segmentation:
    """Final fused segmentation: maximal runs of equal optimal labels;
    ``pair_tables`` as in :func:`minimize_labels`."""
    labels = minimize_labels(ls, unary_ac, unary_adw, stream, params,
                             pair_tables=pair_tables)
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
