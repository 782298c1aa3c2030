"""Bottom-up agglomerative clustering of frames over fused features.

Frames start as singleton clusters; each step merges the closest pair
under the chosen linkage, with cluster distances maintained through the
Lance-Williams update formulas. Cosine distance is used throughout since
the fused vectors live in a high-dimensional, mostly positive space.

The closest pair is found from cached nearest-neighbour candidates, the
"generic" scheme of Muellner, "Modern hierarchical, agglomerative
clustering algorithms" (arXiv:1109.2378, section 3). Node ``a`` keeps
the distances to higher-numbered nodes only, together with their minimum
and the smallest column attaining it. A merge takes the smallest row
minimum (the lowest row on a tie) and that row's cached column, which is
exactly the lexicographically smallest pair at the minimum distance.
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
the day simply contributes several segments.

Ward, centroid and median linkage are formally defined for Euclidean
distances; they are applied to the cosine-distance matrix through the
standard update coefficients anyway, matching common toolkit behaviour.
Centroid and median can produce inversions (a later merge below an
earlier one), so the cut uses the largest merge distance inside each
candidate subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Segmentation, ValidationError
from .fusion import unit_rows

LINKAGES = ("ward", "centroid", "complete", "weighted", "single", "median", "average")

# linkages whose merge heights never invert, so a larger cutoff can only
# coarsen the flat clustering
MONOTONE_LINKAGES = ("single", "complete", "average", "weighted")

# rows rescanned per block, so a rescan's temporary stays at 16 x (2n - 1)
# floats however many cached neighbours a merge invalidates
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
    """1 - cos(a, b), in [0, 2]. Defined as 1 when either vector is zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - float(np.dot(a, b) / (na * nb))


def cosine_distance_matrix(rows: np.ndarray) -> np.ndarray:
    """Full pairwise cosine-distance matrix with the zero-vector convention."""
    unit, nz = unit_rows(np.asarray(rows, dtype=np.float64))
    dist = 1.0 - unit @ unit.T
    # rows or columns for zero vectors: similarity 0, distance 1
    dist[~nz, :] = 1.0
    dist[:, ~nz] = 1.0
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


def linkage_merge_sequence(dist: np.ndarray, linkage: str) -> np.ndarray:
    """Agglomerate a precomputed distance matrix into a merge table.

    ``dist`` is a symmetric (n, n) matrix; only its upper triangle is read.
    Returns an (n-1, 4) array of [node_a, node_b, merge_distance, size],
    with leaves numbered 0..n-1 and the i-th merge creating node n+i.
    When several pairs tie at the minimum distance, the lexicographically
    smallest (node_a, node_b) pair merges first.
    """
    d0 = np.asarray(dist, dtype=np.float64)
    n = d0.shape[0]
    if n == 1:
        return np.zeros((0, 4))
    total = 2 * n - 1
    # work[a, b] for a < b is the distance between live nodes a and b;
    # everything else, and every entry of a merged node, is inf
    work = np.full((total, total), np.inf)
    nd = np.full(total, np.inf)                 # row minimum over live columns
    nn = np.zeros(total, dtype=np.int64)        # its smallest column
    for k in range(n - 1):
        work[k, k + 1:n] = d0[k, k + 1:]
    _rescan(work, nd, nn, np.arange(n - 1), n)
    size = np.zeros(total)
    size[:n] = 1.0
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    merges = np.zeros((n - 1, 4))
    for step in range(n - 1):
        i = int(np.argmin(nd))                  # smallest row wins a tie, and
        j = int(nn[i])                          # nn holds that row's smallest column
        height = work[i, j]
        new = n + step
        active[i] = active[j] = False
        nd[i] = nd[j] = np.inf
        others = np.nonzero(active)[0]
        if others.size:
            updated = _lw_update(linkage, _to_node(work, others, i), _to_node(work, others, j),
                                 height, size[i], size[j], size[others])
            work[others, new] = updated
            closer = updated < nd[others]
            nd[others[closer]] = updated[closer]
            nn[others[closer]] = new
        work[:i, i] = np.inf
        work[:j, j] = np.inf
        stale = nn[:new] == i
        stale |= nn[:new] == j
        stale &= active[:new]
        _rescan(work, nd, nn, np.flatnonzero(stale), new + 1)
        active[new] = True
        size[new] = size[i] + size[j]
        merges[step] = (i, j, height, size[new])
    return merges


def _to_node(work: np.ndarray, others: np.ndarray, node: int) -> np.ndarray:
    """Distances from the sorted live nodes ``others`` to ``node``."""
    split = int(np.searchsorted(others, node))
    return np.concatenate((work[others[:split], node], work[node, others[split:]]))


def _rescan(work: np.ndarray, nd: np.ndarray, nn: np.ndarray, rows: np.ndarray,
            stop: int) -> None:
    """Recompute the cached minimum of ``rows`` over columns < ``stop``.

    Entries on and below the diagonal are inf, so a finite minimum always
    lies in a higher-numbered column, and ``argmin`` takes the smallest.
    """
    for lo in range(0, rows.size, _RESCAN_ROWS):
        chunk = rows[lo:lo + _RESCAN_ROWS]
        block = work[chunk, :stop]
        cols = np.argmin(block, axis=1)
        nd[chunk] = block[np.arange(chunk.size), cols]
        nn[chunk] = cols


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


def cluster_frames(stream: np.ndarray, params: AggloParams) -> Segmentation:
    """Agglomerate fused frame vectors and cut at the configured distance.

    Returns the segmentation induced by label changes between consecutive
    frames.
    """
    rows = np.asarray(stream, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValidationError("expected a non-empty (n, d) feature matrix")
    n = rows.shape[0]
    if n == 1:
        return Segmentation(1, (0,))
    dist = cosine_distance_matrix(rows)
    merges = linkage_merge_sequence(dist, params.linkage)
    labels = cut_merge_sequence(merges, n, params.cutoff)
    return Segmentation.from_labels(labels)
