"""Bottom-up agglomerative clustering of frames over fused features.

Frames start as singleton clusters; each step merges the closest pair
under the chosen linkage, with cluster distances maintained through the
Lance-Williams update formulas. Cosine distance is used throughout since
the fused vectors live in a high-dimensional, mostly positive space.

The closest pair is found from cached nearest-neighbour candidates, the
"generic" scheme of Muellner, "Modern hierarchical, agglomerative
clustering algorithms" (arXiv:1109.2378, section 3). The work matrix
has one row and one column per live cluster, n x n floats for the whole
run, and :func:`cluster_frames` builds it in the distance matrix's own
buffer: when nodes i < j merge, the new node takes i's slot and j's slot
is retired. Node ``a``'s row keeps the distances to higher-numbered live
nodes only, together with their minimum and a node attaining it; the new
node outnumbers every live node, so its distances fill its slot's column
and its row is all inf. A merge takes the smallest row minimum (the
lowest node on a tie) and, in that row, the lowest node id at the
minimum, which is exactly the lexicographically smallest pair at the
minimum distance. Slot order is not node order, so the row's tie is
settled by node id at the merge, not by the cached neighbour.
After a merge only the rows whose cached neighbour was one of the merged
nodes are rescanned; the others only compare against the new node's
distance. That is O(n^2) overall when few rows share a neighbour, as
with average, complete, weighted and ward linkage, and O(n^3) at worst.
The arithmetic is the same as recomputing a full minimum every step, so
merge tables are identical bit for bit.

The dendrogram is cut where the merge distance reaches the cutoff, frames
inherit their cluster's label, and the output segmentation places a
boundary wherever consecutive frames carry different labels. Labels are
not forced to be temporally contiguous; a cluster that recurs later in
the day simply contributes several segments. The merge table depends
only on the frames and the linkage, and the cut reads only the table, so
a sweep over cutoffs builds the table once and cuts it once per cutoff
(the ``merge_tables`` argument of :func:`cluster_frames`).

Ward, centroid and median linkage are formally defined for Euclidean
distances; they are applied to the cosine-distance matrix through the
standard update coefficients anyway, matching common toolkit behaviour.
Centroid and median can produce inversions (a later merge below an
earlier one), so the cut uses the largest merge distance inside each
candidate subtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datamodel import Segmentation, ValidationError, _held
from .fusion import unit_rows

LINKAGES = ("ward", "centroid", "complete", "weighted", "single", "median", "average")

# linkages whose merge heights never invert, so a larger cutoff can only
# coarsen the flat clustering
MONOTONE_LINKAGES = ("single", "complete", "average", "weighted")

# rows rescanned per block, so a rescan's temporary stays at 16 x n floats
# however many cached neighbours a merge invalidates
_RESCAN_ROWS = 16


@dataclass(frozen=True)
class AggloParams:
    linkage: str = "average"
    cutoff: float = 0.4

    def __post_init__(self):
        if self.linkage not in LINKAGES:
            raise ValidationError(
                f"linkage must be one of {LINKAGES}, got {self.linkage!r}"
            )
        if self.cutoff <= 0:
            raise ValidationError(f"cutoff must be > 0, got {self.cutoff}")


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2]. Defined as 1 when either vector is zero:
    a zero row stays zero under ``unit_rows``, so the product is 0."""
    unit = unit_rows(np.asarray([a, b], dtype=np.float64))
    return 1.0 - float((unit[0] * unit[1]).sum())


def cosine_distance_matrix(rows: np.ndarray) -> np.ndarray:
    """Full pairwise cosine-distance matrix with the zero-vector convention
    of :func:`cosine_distance` (zero rows sit at distance 1 from all)."""
    unit = unit_rows(np.asarray(rows, dtype=np.float64))
    dist = unit @ unit.T
    np.subtract(1.0, dist, out=dist)
    np.fill_diagonal(dist, 0.0)
    return dist


def _lw_update(linkage: str, d_ki: np.ndarray, d_kj: np.ndarray, d_ij: float,
               n_i: float, n_j: float, n_k: np.ndarray) -> np.ndarray:
    if linkage == "single":
        return np.minimum(d_ki, d_kj)
    if linkage == "complete":
        return np.maximum(d_ki, d_kj)
    if linkage == "average":
        return (n_i * d_ki + n_j * d_kj) / (n_i + n_j)
    if linkage == "weighted":
        return 0.5 * (d_ki + d_kj)
    if linkage == "centroid":
        t = (n_i * d_ki ** 2 + n_j * d_kj ** 2) / (n_i + n_j) \
            - (n_i * n_j * d_ij ** 2) / (n_i + n_j) ** 2
        return np.sqrt(np.maximum(t, 0.0))
    if linkage == "median":
        t = 0.5 * d_ki ** 2 + 0.5 * d_kj ** 2 - 0.25 * d_ij ** 2
        return np.sqrt(np.maximum(t, 0.0))
    if linkage == "ward":
        t = ((n_k + n_i) * d_ki ** 2 + (n_k + n_j) * d_kj ** 2 - n_k * d_ij ** 2) \
            / (n_i + n_j + n_k)
        return np.sqrt(np.maximum(t, 0.0))
    raise ValidationError(f"unknown linkage {linkage!r}")


def linkage_merge_sequence(dist: np.ndarray, linkage: str, *,
                           overwrite_dist: bool = False) -> np.ndarray:
    """Agglomerate a precomputed distance matrix into a merge table.

    ``dist`` is a symmetric (n, n) matrix; only its upper triangle is read.
    Returns an (n-1, 4) array of [node_a, node_b, merge_distance, size],
    with leaves numbered 0..n-1 and the i-th merge creating node n+i.
    When several pairs tie at the minimum distance, the lexicographically
    smallest (node_a, node_b) pair merges first.

    By default ``dist`` is left as it is, and the work matrix is a copy.
    With ``overwrite_dist`` a C-ordered float64 ``dist``, which must then
    be writeable, becomes the work matrix itself. That saves n x n floats,
    and leaves ``dist``'s contents undefined.
    """
    work = np.array(dist, dtype=np.float64, order="C",
                    copy=None if overwrite_dist else True)
    n = work.shape[0]
    if n == 1:
        return np.zeros((0, 4))
    total = 2 * n - 1
    # work[pos[a], pos[b]] for live a < b is the distance between a and b;
    # every other entry a live row can read is inf
    for k in range(n):
        work[k, :k + 1] = np.inf
    pos = np.arange(total)                      # node id -> slot, read for live nodes
    ids = np.arange(n)                          # slot -> node id
    nd = np.full(total, np.inf)                 # row minimum over live columns
    nn = np.zeros(total, dtype=np.int64)        # a node attaining it
    _rescan(work, ids, nd, nn, np.arange(n - 1), np.arange(n - 1))
    size = np.zeros(total)
    size[:n] = 1.0
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    merges = np.zeros((n - 1, 4))
    for step in range(n - 1):
        i = int(np.argmin(nd))                  # smallest row wins a tie
        height = nd[i]
        si = pos[i]
        # nn[i] may be any node at the row minimum; take the smallest
        j = int(ids[np.flatnonzero(work[si] == height)].min())
        sj = pos[j]
        new = n + step
        active[i] = active[j] = False
        nd[i] = nd[j] = np.inf
        others = np.nonzero(active)[0]
        if others.size:
            slots = pos[others]
            updated = _lw_update(linkage, _to_node(work, others, slots, i, si),
                                 _to_node(work, others, slots, j, sj),
                                 height, size[i], size[j], size[others])
            # the new node takes i's slot and outnumbers every live node
            work[si] = np.inf
            work[slots, si] = updated
            work[slots, sj] = np.inf
            closer = updated < nd[others]
            nd[others[closer]] = updated[closer]
            nn[others[closer]] = new
        pos[new] = si
        ids[si] = new
        stale = nn[:new] == i
        stale |= nn[:new] == j
        stale &= active[:new]
        rows = np.flatnonzero(stale)
        _rescan(work, ids, nd, nn, rows, pos[rows])
        active[new] = True
        size[new] = size[i] + size[j]
        merges[step] = (i, j, height, size[new])
    return merges


def _to_node(work: np.ndarray, others: np.ndarray, slots: np.ndarray, node: int,
             slot: int) -> np.ndarray:
    """Distances from the sorted live nodes ``others``, held in ``slots``,
    to ``node``, held in ``slot``: lower-numbered nodes keep them in the
    slot's column, higher-numbered ones in its row."""
    split = int(np.searchsorted(others, node))
    return np.concatenate((work[slots[:split], slot], work[slot, slots[split:]]))


def _rescan(work: np.ndarray, ids: np.ndarray, nd: np.ndarray, nn: np.ndarray,
            rows: np.ndarray, slots: np.ndarray) -> None:
    """Recompute the cached minimum of the nodes ``rows``, held in ``slots``.

    A row is finite only at live higher-numbered nodes, so its minimum is
    the one over those. On a tie ``argmin`` takes the lowest slot, which
    need not hold the lowest node id; a merge resolves that itself.
    """
    for lo in range(0, rows.size, _RESCAN_ROWS):
        chunk = rows[lo:lo + _RESCAN_ROWS]
        block = work[slots[lo:lo + _RESCAN_ROWS]]
        cols = np.argmin(block, axis=1)
        nd[chunk] = block[np.arange(chunk.size), cols]
        nn[chunk] = ids[cols]


def cut_merge_sequence(merges: np.ndarray, n: int, cutoff: float) -> np.ndarray:
    """Flat cluster labels from cutting the merge table at ``cutoff``.

    A cluster is a maximal subtree in which every merge distance is below
    the cutoff (the subtree maximum, so inversions cannot stitch together
    groups that already separated). Such subtrees are closed downwards, so
    the clusters are the connected components of the child edges of the
    merges whose subtree maximum is below the cutoff. Each node points to
    its parent across those edges, and pointer jumping takes every frame
    to the root of its component, whose node id is the frame's label.
    """
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    subtree_max = np.zeros(2 * n - 1)
    for step, (a, b, height, _) in enumerate(merges):
        subtree_max[n + step] = max(height, subtree_max[int(a)], subtree_max[int(b)])
    valid = subtree_max[n:] < cutoff
    up = np.arange(2 * n - 1)
    up[merges[valid, :2].astype(np.int64)] = np.arange(n, 2 * n - 1)[valid, None]
    while True:
        jumped = up[up]
        if np.array_equal(jumped, up):
            return up[:n]
        up = jumped


def cluster_frames(stream: np.ndarray, params: AggloParams, *,
                   merge_tables: Optional[dict] = None) -> Segmentation:
    """Agglomerate fused frame vectors and cut at the configured distance.

    Returns the segmentation induced by label changes between consecutive
    frames. A NaN or inf entry raises :class:`ValidationError`.

    The work has two steps: the merge table, which depends on the stream
    and the linkage only, and its cut at ``params.cutoff``. A caller that
    cuts one stream at several cutoffs may pass ``merge_tables``, its
    dict of this stream's tables by linkage, looked up or built by
    :func:`~photoseg.datamodel._held`. The segmentation is the same either way.
    """
    rows = np.asarray(stream, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValidationError("expected a non-empty (n, d) feature matrix")
    if not np.isfinite(rows).all():
        raise ValidationError("feature matrix must be finite")
    n = rows.shape[0]
    if n == 1:
        return Segmentation(1, (0,))
    # the distances are needed only as the merge loop's work matrix
    merges = _held(merge_tables, params.linkage, lambda: linkage_merge_sequence(
        cosine_distance_matrix(rows), params.linkage, overwrite_dist=True))
    return Segmentation.from_labels(cut_merge_sequence(merges, n, params.cutoff))
