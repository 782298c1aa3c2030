"""Independent reference implementations the tests check against.

Everything here recomputes from first principles with its own code paths:
brute-force set arithmetic for the consistency errors, full-rescan change
detection, from-scratch cluster distances, and exhaustive enumeration of
monotone labelings. Keep these naive; their value is that they share no
shortcuts with the library.

The loop references for the chain minimiser (``per_pair_labeling_energy``,
``prefix_scan_chain_optimum``) are the exception: they call the library's
own pair-energy primitives, because they pin its radius-1 labels and its
energies bit for bit rather than check the optimum, which the exhaustive
enumeration does at every radius. So are the inline unit-row forms and the
tree-walking dendrogram cut below, kept verbatim from before the library
shared one ``unit_rows`` helper and cut through connected components,
the BLAS scalar cosine from before every cosine went through it, and the
triangle-layout merge loop from before merged nodes' slots were reused
(it shares the library's Lance-Williams update): the tests compare the
library's bytes, partitions and values against them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from photoseg.agglo import _lw_update
from photoseg.graphcut import _neighbor_sizes, pairwise_energy


# ------------------------------------------------------- consistency errors

def segmentation_to_sets(starts, n):
    edges = list(starts) + [n]
    return [set(range(edges[k], edges[k + 1])) for k in range(len(edges) - 1)]


def brute_local_error(sets_a, sets_b, i):
    ra = next(s for s in sets_a if i in s)
    rb = next(s for s in sets_b if i in s)
    return len(ra - rb) / len(ra)


def brute_gce_lce(starts_a, starts_b, n):
    sets_a = segmentation_to_sets(starts_a, n)
    sets_b = segmentation_to_sets(starts_b, n)
    e_ab = [brute_local_error(sets_a, sets_b, i) for i in range(n)]
    e_ba = [brute_local_error(sets_b, sets_a, i) for i in range(n)]
    gce = min(sum(e_ab), sum(e_ba)) / n
    lce = sum(min(a, b) for a, b in zip(e_ab, e_ba)) / n
    return gce, lce


# ------------------------------------------------------------ change scan

def full_rescan_adwin(stream, delta, p=2, min_subwindow=1):
    """Offline re-derivation: at every step the window is re-sliced from
    the raw stream, no incremental state beyond the window start."""
    data = np.asarray(stream, dtype=np.float64)
    n, dim = data.shape
    boundaries = []
    start = 0
    for t in range(n):
        while True:
            window = data[start:t + 1]
            w = window.shape[0]
            if w < 2 * min_subwindow:
                break
            prefix = np.cumsum(window, axis=0)
            splits = np.arange(min_subwindow, w - min_subwindow + 1)
            n1 = splits.astype(np.float64)
            n2 = w - n1
            mean_old = prefix[splits - 1] / n1[:, None]
            mean_new = (prefix[-1] - prefix[splits - 1]) / n2[:, None]
            gaps = (np.abs(mean_old - mean_new) ** p).sum(axis=1) ** (1.0 / p)
            harmonic = 2.0 * n1 * n2 / (n1 + n2)
            log_term = math.log(4.0 / (dim * (delta / w)))
            if log_term <= 0.0:
                eps = np.full_like(harmonic, np.inf)
            else:
                eps = dim ** (1.0 / p) * np.sqrt(log_term / (2.0 * harmonic))
            violation = gaps - eps
            best = int(np.argmax(violation))
            if violation[best] <= 0.0:
                break
            start = start + int(splits[best])
            boundaries.append(start)
    return boundaries


def offline_split_scan(stream, delta, p=2):
    """Gap and threshold at every split of the WHOLE stream, for verifying
    that a fixture's change is detectable at its true split and nowhere
    else."""
    data = np.asarray(stream, dtype=np.float64)
    n, dim = data.shape
    out = []
    log_term = math.log(4.0 / (dim * (delta / n)))
    for split in range(1, n):
        mean_old = data[:split].mean(axis=0)
        mean_new = data[split:].mean(axis=0)
        gap = float((np.abs(mean_old - mean_new) ** p).sum() ** (1.0 / p))
        m = 2.0 * split * (n - split) / n
        eps = math.inf if log_term <= 0.0 else \
            dim ** (1.0 / p) * math.sqrt(log_term / (2.0 * m))
        out.append((split, gap, eps))
    return out


# -------------------------------------------------- agglomerative clustering

def naive_merge_sequence(dist, linkage):
    """Recompute every cluster distance from scratch at each step.

    single/complete/average come straight from the raw pairwise matrix;
    the recursive linkages rebuild a fresh distance table per step from
    the previous one, which is their definition on a dissimilarity input.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    clusters = {i: [i] for i in range(n)}      # node id -> leaf members
    current = {}                               # pair -> distance
    for i in range(n):
        for j in range(i + 1, n):
            current[(i, j)] = dist[i, j]
    sizes = {i: 1 for i in range(n)}
    merges = []
    next_id = n
    for _ in range(n - 1):
        (a, b), height = min(current.items(), key=lambda kv: (kv[1], kv[0]))
        members = clusters.pop(a) + clusters.pop(b)
        fresh = {}
        for (x, y), d in current.items():
            if a in (x, y) or b in (x, y):
                continue
            fresh[(x, y)] = d
        for k in clusters:
            if linkage == "single":
                d = min(dist[p, q] for p in members for q in clusters[k])
            elif linkage == "complete":
                d = max(dist[p, q] for p in members for q in clusters[k])
            elif linkage == "average":
                d = sum(dist[p, q] for p in members for q in clusters[k]) \
                    / (len(members) * len(clusters[k]))
            else:
                d = _recursive_linkage(linkage, current, a, b, k,
                                       sizes[a], sizes[b], sizes[k], height)
            fresh[(min(k, next_id), max(k, next_id))] = d
        clusters[next_id] = members
        sizes[next_id] = sizes[a] + sizes[b]
        merges.append((a, b, height))
        current = fresh
        next_id += 1
    return merges


_RESCAN_ROWS = 16


def triangle_merge_sequence(dist: np.ndarray, linkage: str) -> np.ndarray:
    """The cached-neighbour loop ``agglo.linkage_merge_sequence`` had
    before it reused merged nodes' slots: a (2n - 1)^2 work matrix with
    node ``a``'s distances to higher-numbered nodes in row ``a``. Merge
    tables must match it byte for byte."""
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
    _triangle_rescan(work, nd, nn, np.arange(n - 1), n)
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
            updated = _lw_update(linkage, _triangle_to_node(work, others, i),
                                 _triangle_to_node(work, others, j),
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
        _triangle_rescan(work, nd, nn, np.flatnonzero(stale), new + 1)
        active[new] = True
        size[new] = size[i] + size[j]
        merges[step] = (i, j, height, size[new])
    return merges


def _triangle_to_node(work: np.ndarray, others: np.ndarray, node: int) -> np.ndarray:
    """Distances from the sorted live nodes ``others`` to ``node``."""
    split = int(np.searchsorted(others, node))
    return np.concatenate((work[others[:split], node], work[node, others[split:]]))


def _triangle_rescan(work: np.ndarray, nd: np.ndarray, nn: np.ndarray, rows: np.ndarray,
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


def walk_cut_merge_sequence(merges: np.ndarray, n: int, cutoff: float) -> np.ndarray:
    """The tree-walking cut ``agglo.cut_merge_sequence`` replaced; its
    partitions must match."""
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    subtree_max = np.zeros(2 * n - 1)
    for step, (a, b, height, _) in enumerate(merges):
        subtree_max[n + step] = max(height, subtree_max[int(a)], subtree_max[int(b)])
    return _label_valid_subtrees(merges, n, subtree_max, cutoff)


def _label_valid_subtrees(merges: np.ndarray, n: int, subtree_max: np.ndarray,
                          cutoff: float) -> np.ndarray:
    children: dict[int, tuple[int, int]] = {}
    for step, (a, b, _, _) in enumerate(merges):
        children[n + step] = (int(a), int(b))
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    root = 2 * n - 2 if len(merges) else 0

    stack = [root]
    while stack:
        node = stack.pop()
        if node < n and labels[node] == -1:
            labels[node] = next_label
            next_label += 1
            continue
        if node >= n and subtree_max[node] < cutoff:
            next_label = _assign(node, children, labels, next_label, n)
        elif node >= n:
            a, b = children[node]
            stack.extend((b, a))
    return labels


def _assign(node: int, children: dict[int, tuple[int, int]], labels: np.ndarray,
            label: int, n: int) -> int:
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur < n:
            labels[cur] = label
        else:
            stack.extend(children[cur])
    return label + 1


def inline_cosine_distance_matrix(rows: np.ndarray) -> np.ndarray:
    """``agglo.cosine_distance_matrix`` with its own unit-row code."""
    m = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    unit = np.zeros_like(m)
    nz = norms > 0
    unit[nz] = m[nz] / norms[nz, None]
    dist = 1.0 - unit @ unit.T
    # rows or columns for zero vectors: similarity 0, distance 1
    dist[~nz, :] = 1.0
    dist[:, ~nz] = 1.0
    np.fill_diagonal(dist, 0.0)
    return dist


def blas_cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``agglo.cosine_distance`` with its own norms and BLAS dot product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - float(np.dot(a, b) / (na * nb))


def _pair(d, x, y):
    return d[(min(x, y), max(x, y))]


def _recursive_linkage(linkage, current, a, b, k, na, nb, nk, dab):
    dka = _pair(current, k, a)
    dkb = _pair(current, k, b)
    if linkage == "weighted":
        return 0.5 * (dka + dkb)
    if linkage == "centroid":
        t = (na * dka ** 2 + nb * dkb ** 2) / (na + nb) \
            - (na * nb * dab ** 2) / (na + nb) ** 2
        return math.sqrt(max(t, 0.0))
    if linkage == "median":
        t = 0.5 * dka ** 2 + 0.5 * dkb ** 2 - 0.25 * dab ** 2
        return math.sqrt(max(t, 0.0))
    if linkage == "ward":
        t = ((nk + na) * dka ** 2 + (nk + nb) * dkb ** 2 - nk * dab ** 2) \
            / (na + nb + nk)
        return math.sqrt(max(t, 0.0))
    raise ValueError(linkage)


# ---------------------------------------------------------- chain labeling

def inline_centroid_similarities(stream: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``graphcut._centroid_similarities`` with its own unit-row code."""
    def unit(m):
        norms = np.linalg.norm(m, axis=1)
        out = np.zeros_like(m)
        nz = norms > 0
        out[nz] = m[nz] / norms[nz, None]
        return out

    return unit(stream) @ unit(centroids).T


def inline_adjacent_energies(stream: np.ndarray) -> np.ndarray:
    """``graphcut._adjacent_energies`` with its own unit-row code."""
    unit = stream / np.where(
        np.linalg.norm(stream, axis=1, keepdims=True) > 0,
        np.linalg.norm(stream, axis=1, keepdims=True), 1.0)
    sims = (unit[:-1] * unit[1:]).sum(axis=1)
    zero = (np.linalg.norm(stream[:-1], axis=1) == 0) | (np.linalg.norm(stream[1:], axis=1) == 0)
    sims[zero] = 0.0
    return np.exp(-(1.0 - sims))


def enumerate_monotone_labelings(n, num_labels):
    for starts in itertools.combinations_with_replacement(range(num_labels), n):
        yield np.asarray(starts)


def brute_force_energy(labels, mixed_unary, stream, pairwise_weight, radius):
    """Energy by the raw definition, own loops, own cosine."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    total = sum(mixed_unary[i, labels[i]] for i in range(n))
    for i in range(n):
        lo, hi = max(0, i - radius), min(n - 1, i + radius)
        neighbors = [j for j in range(lo, hi + 1) if j != i]
        if not neighbors:
            continue
        acc = 0.0
        for j in neighbors:
            if labels[j] != labels[i]:
                acc += math.exp(-_cos_dist(stream[i], stream[j]))
        total += pairwise_weight * acc / len(neighbors)
    return float(total)


def _cos_dist(u, v):
    nu = math.sqrt(float(np.dot(u, u)))
    nv = math.sqrt(float(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return 1.0 - float(np.dot(u, v)) / (nu * nv)


def brute_force_min_labeling(mixed_unary, stream, pairwise_weight, radius):
    n, num_labels = mixed_unary.shape
    best_e, best_lab = math.inf, None
    for lab in enumerate_monotone_labelings(n, num_labels):
        e = brute_force_energy(lab, mixed_unary, stream, pairwise_weight, radius)
        if e < best_e:
            best_e, best_lab = e, lab
    return best_e, best_lab


def per_pair_labeling_energy(labels, unary_ac, unary_adw, stream, params):
    """The library's ``labeling_energy`` as it was before the pair table:
    one ``pairwise_energy`` call per disagreeing pair, summed in the same
    order, so the library must match it bit for bit."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    mixed = (1.0 - params.unary_mix) * unary_ac + params.unary_mix * unary_adw
    total = float(mixed[np.arange(n), labels].sum())
    if params.pairwise_weight == 0.0 or n == 1:
        return total
    sizes = _neighbor_sizes(n, params.radius)
    pair = 0.0
    for i in range(n):
        lo = max(0, i - params.radius)
        hi = min(n - 1, i + params.radius)
        for j in range(lo, hi + 1):
            if j != i and labels[j] != labels[i]:
                pair += pairwise_energy(stream[i], stream[j]) / sizes[i]
    return total + params.pairwise_weight * pair


def prefix_scan_chain_optimum(mixed, stream, params):
    """The radius-1 chain DP with a per-label Python scan for the prefix
    argmin; the labels ``graphcut._chain_optimum`` must give."""
    n, num_labels = mixed.shape
    if n == 1:
        return np.array([int(np.argmin(mixed[0]))])
    sizes = _neighbor_sizes(n, 1)
    adj = inline_adjacent_energies(stream)
    # cost charged when frames i and i+1 disagree, summed over both
    # frames' neighborhood averages
    switch_cost = params.pairwise_weight * adj * (1.0 / sizes[:-1] + 1.0 / sizes[1:])

    cost = mixed[0].copy()
    back = np.zeros((n, num_labels), dtype=np.int64)
    back[0] = np.arange(num_labels)
    for i in range(1, n):
        prefix_best = np.minimum.accumulate(cost)
        prefix_arg = np.zeros(num_labels, dtype=np.int64)
        best = 0
        for l in range(1, num_labels):
            if cost[l] < cost[best]:
                best = l
            prefix_arg[l] = best
        stay = cost
        switch = np.full(num_labels, np.inf)
        switch[1:] = prefix_best[:-1] + switch_cost[i - 1]
        take_stay = stay <= switch
        back[i] = np.where(take_stay, np.arange(num_labels),
                           np.concatenate(([0], prefix_arg[:-1])))
        cost = mixed[i] + np.where(take_stay, stay, switch)

    labels = np.zeros(n, dtype=np.int64)
    labels[-1] = int(np.argmin(cost))
    for i in range(n - 1, 0, -1):
        labels[i - 1] = back[i, labels[i]]
    return labels


# ------------------------------------------------------------ partitions

def best_two_partition_score(weights):
    """Exhaustive best proper 2-partition by intra minus inter similarity."""
    n = weights.shape[0]
    best_score, best_side = -math.inf, None
    for mask in range(1, 2 ** (n - 1)):        # vertex 0 fixed on side 0, both sides non-empty
        side = [0] + [(mask >> i) & 1 for i in range(n - 1)]
        intra = inter = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                if side[i] == side[j]:
                    intra += weights[i, j]
                else:
                    inter += weights[i, j]
        score = intra - inter
        if score > best_score:
            best_score, best_side = score, side
    return best_score, best_side


def rescan_init_kmeans(points, k, seed):
    """Seeded farthest-point k-means whose init recomputes, at every step,
    each point's distance to every centre chosen so far, then Lloyd steps
    that form every point-centre distance in one (v, k, dim) broadcast,
    kept verbatim from before the library searched nearest centres through
    one BLAS product. Labels and distortion, as the library's
    ``_farthest_point_kmeans`` must give bit for bit."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = [points[int(rng.integers(n))]]
    while len(centers) < k:
        d = np.min([((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
        centers.append(points[int(np.argmax(d))])
    centers = np.asarray(centers)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(100):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(dists, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = points[mask].mean(axis=0)
        if np.allclose(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers
    distortion = float(((points - centers[labels]) ** 2).sum())
    return labels, distortion


def pairwise_tag_weights(provider, meanings):
    """Best meaning-pair similarity per tag pair, one ``similarity`` call
    per meaning pair; zero diagonal."""
    v = len(meanings)
    out = np.zeros((v, v))
    for i in range(v):
        for j in range(v):
            if i != j:
                out[i, j] = max(provider.similarity(a, b)
                                for a in meanings[i] for b in meanings[j])
    return out


def brute_semantic_matrix(det_frames, clusters):
    """Double loop over frames and detections, no vectorization."""
    n = len(det_frames)
    out = np.zeros((n, len(clusters)))
    for i, frame in enumerate(det_frames):
        for tag, conf in frame:
            for j, members in enumerate(clusters):
                if tag in members:
                    out[i, j] += conf
    return out
