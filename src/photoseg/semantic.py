"""Day-level semantic vocabulary and per-frame semantic feature vectors.

The stages, in pipeline order:

1. build a complete tag-similarity graph over the day's unique tags,
   scoring each pair by the best similarity over all meaning pairs,
2. group the tags into at most ``k`` concept clusters by spectral
   clustering of that graph,
3. per frame, sum detection confidences into the clusters and rescale the
   whole matrix into [0, 1],
4. smooth each concept column along time with a density-estimation kernel,
5. drop concepts whose confidence barely varies across the day.

Everything here is a pure function of its inputs; clustering additionally
takes a seed and is deterministic given it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .datamodel import (
    ConceptDetections,
    ValidationError,
    _as_number,
    _held,
    read_json_object,
    write_json_object,
)
from .fusion import slice_means, unit_rows

# seeded k-means runs per spectral clustering; the least distortion wins
_KMEANS_RESTARTS = 10


class UnknownTagError(ValidationError):
    """A detected tag is missing from the similarity provider."""

    def __init__(self, tag: str):
        super().__init__(f"tag {tag!r} has no meanings in the similarity provider")
        self.tag = tag


class SimilarityProvider:
    """Answers ``meanings(tag)`` and ``similarity(meaning_a, meaning_b)``.

    Implementations must keep similarity symmetric, within [0, 1], and equal
    to 1 for identical meanings.

    ``tag_weights(meanings)`` takes one meaning list per distinct tag and
    returns the (v, v) float64 tag-weight matrix: entry (i, j), i != j, is
    the maximum of ``similarity(a, b)`` over ``a`` in ``meanings[i]`` and
    ``b`` in ``meanings[j]``, and the diagonal is 0. This base class
    computes it pair by pair. A subclass may override it with a faster
    path, which must return the same matrix bit for bit.
    """

    def meanings(self, tag: str) -> list[str]:
        raise NotImplementedError

    def similarity(self, meaning_a: str, meaning_b: str) -> float:
        raise NotImplementedError

    def tag_weights(self, meanings: Sequence[Sequence[str]]) -> np.ndarray:
        v = len(meanings)
        weights = np.zeros((v, v), dtype=np.float64)
        for i in range(v):
            for j in range(i + 1, v):
                weights[i, j] = weights[j, i] = max(
                    self.similarity(ma, mb) for ma in meanings[i] for mb in meanings[j]
                )
        return weights


class FileSimilarityProvider(SimilarityProvider):
    """Similarity table backed by a JSON file, so runs are hermetic.

    Schema: ``{"meanings": {tag: [meaning, ...]}, "sims": [[meaning_a,
    meaning_b, value], ...]}``. Pairs not listed default to 0; identical
    meanings score 1.
    """

    def __init__(self, meanings: dict[str, list[str]], sims: dict[tuple[str, str], float]):
        self._meanings = {t: list(ms) for t, ms in meanings.items()}
        self._sims = {}
        for (a, b), v in sims.items():
            if not (isinstance(a, str) and isinstance(b, str)):
                raise ValidationError(f"similarity pair ({a!r}, {b!r}) names a non-string meaning")
            if type(v) is not float:   # a float needs only the range test, which NaN fails
                v = _as_number(v, f"similarity for ({a!r}, {b!r})")
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"similarity {v} for ({a!r}, {b!r}) outside [0, 1]")
            self._sims[(a, b)] = v
            self._sims[(b, a)] = v

    @classmethod
    def from_file(cls, path: str | Path) -> "FileSimilarityProvider":
        obj = read_json_object(path)
        meanings = obj.get("meanings", {})
        if not isinstance(meanings, dict) or not all(
                isinstance(ms, list) and all(isinstance(m, str) for m in ms)
                for ms in meanings.values()):
            raise ValidationError(f"{path}: 'meanings' must map each tag to a list of strings")
        try:
            sims = {(a, b): v for a, b, v in obj.get("sims", [])}
        except (TypeError, ValueError) as exc:   # not a triple, or an unhashable meaning
            raise ValidationError(
                f"{path}: each 'sims' entry must be [meaning_a, meaning_b, value] ({exc})"
            ) from None
        return cls(meanings, sims)

    def meanings(self, tag: str) -> list[str]:
        return self._meanings.get(tag, [])

    def similarity(self, meaning_a: str, meaning_b: str) -> float:
        if meaning_a == meaning_b:
            return 1.0
        return self._sims.get((meaning_a, meaning_b), 0.0)

    def tag_weights(self, meanings: Sequence[Sequence[str]]) -> np.ndarray:
        # Scatter each listed pair, and each meaning paired with itself at 1,
        # onto the tags owning those meanings and keep the maximum per tag
        # pair: O(|sims|) work, never the (m*v)^2 meaning-pair grid.
        owners: dict[str, list[int]] = {}
        for i, ms in enumerate(meanings):
            for m in ms:
                owners.setdefault(m, []).append(i)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        pairs = itertools.chain(((m, m, 1.0) for m in owners),
                                ((a, b, value) for (a, b), value in self._sims.items()))
        for a, b, value in pairs:
            if a in owners and b in owners:
                ia, ib = owners[a], owners[b]
                for i in ia:
                    rows.extend([i] * len(ib))
                cols.extend(ib * len(ia))
                vals.extend([value] * (len(ia) * len(ib)))
        v = len(meanings)
        weights = np.zeros((v, v), dtype=np.float64)
        np.maximum.at(weights, (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)),
                      np.asarray(vals, dtype=np.float64))
        np.fill_diagonal(weights, 0.0)
        return weights


class ExactMatchProvider(SimilarityProvider):
    """Degenerate provider: every tag is its own single meaning.

    Useful default when no lexical database export is available. While
    ``vocab_size`` is at least the number of distinct tags, the vocabulary
    then falls back to one cluster per distinct tag. Past that, the tag
    graph is all zero and its spectral clusters are arbitrary (the
    all-zero tag graph defect in ROADMAP.md's open items).
    """

    def meanings(self, tag: str) -> list[str]:
        return [tag]

    def similarity(self, meaning_a: str, meaning_b: str) -> float:
        return 1.0 if meaning_a == meaning_b else 0.0

    def tag_weights(self, meanings: Sequence[Sequence[str]]) -> np.ndarray:
        # distinct tags never share their single meaning
        return np.zeros((len(meanings), len(meanings)), dtype=np.float64)


@dataclass(frozen=True)
class ConceptGraph:
    """Complete weighted graph over the day's unique tags.

    ``weights`` is symmetric with a zero diagonal; entry (i, j) is the
    strength of the semantic relationship between ``tags[i]`` and
    ``tags[j]``.
    """

    tags: tuple[str, ...]
    weights: np.ndarray

    @property
    def num_tags(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class ConceptCluster:
    representative: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class SemanticVocabulary:
    """The day's concept clusters, one semantic feature column per cluster."""

    clusters: tuple[ConceptCluster, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for cl in self.clusters:
            if cl.representative not in cl.members:
                raise ValidationError(
                    f"representative {cl.representative!r} not a member of its cluster"
                )
            for m in cl.members:
                if not isinstance(m, str):
                    raise ValidationError(f"tag {m!r} is not a string")
                if m in seen:
                    raise ValidationError(f"tag {m!r} appears in more than one cluster")
                seen.add(m)

    @property
    def size(self) -> int:
        return len(self.clusters)

    def tag_to_cluster(self) -> dict[str, int]:
        return {m: j for j, cl in enumerate(self.clusters) for m in cl.members}

    def save(self, path: str | Path) -> None:
        obj = {
            "clusters": [
                {"representative": cl.representative, "members": list(cl.members)}
                for cl in self.clusters
            ]
        }
        write_json_object(path, obj)

    @classmethod
    def load(cls, path: str | Path) -> "SemanticVocabulary":
        obj = read_json_object(path)
        try:
            clusters = tuple(
                ConceptCluster(c["representative"], tuple(c["members"]))
                for c in obj["clusters"]
            )
        except KeyError as exc:
            raise ValidationError(f"vocabulary file missing field {exc}") from None
        except TypeError as exc:
            raise ValidationError(f"{path}: malformed cluster entry ({exc})") from None
        return cls(clusters)


def build_concept_graph(det: ConceptDetections, provider: SimilarityProvider) -> ConceptGraph:
    """Score every pair of observed tags by their best meaning-pair similarity.

    Raises :class:`UnknownTagError` for any tag the provider has no
    meanings for.
    """
    tags = det.unique_tags()
    if not tags:
        raise ValidationError("no tags observed, cannot build a concept graph")
    meanings = []
    for tag in tags:
        ms = provider.meanings(tag)
        if not ms:
            raise UnknownTagError(tag)
        meanings.append(ms)
    return ConceptGraph(tags=tuple(tags), weights=provider.tag_weights(meanings))


def _exact_sq_dists(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Squared distances ``((points - centres) ** 2).sum(axis=1)``, row by
    row or against one centre: the values k-means' labels are defined by,
    which every faster path must reproduce bit for bit."""
    return ((points - centres) ** 2).sum(axis=1)


def _nearest_centres(points: np.ndarray, sq_norms: np.ndarray,
                     centres: np.ndarray) -> np.ndarray:
    """Per point, the first index of the centre nearest under
    :func:`_exact_sq_dists`, without forming every exact distance.

    ``sq_norms`` is ``(points ** 2).sum(axis=1)``.
    """
    sq_centres = (centres ** 2).sum(axis=1)
    expanded = sq_norms[:, None] - 2.0 * (points @ centres.T) + sq_centres
    # Why the candidates suffice. Let u = eps / 2, d = dim, s = |x|^2 +
    # max |c|^2 and D the true squared distance. |x|^2, |c|^2 and x.c are
    # d-term sums, each off by at most gamma_d = d*u / (1 - d*u) times
    # |x|^2 + |c|^2 in any summation order (Higham, "Accuracy and Stability
    # of Numerical Algorithms", 3.1), and the two additions round sums of
    # magnitude <= 2s, so ``expanded`` is within (2d + 4)u*s of D.
    # _exact_sq_dists rounds twice per term and adds d - 1 times, so it is
    # within gamma_(d+1) * 2s of D. The two differ by at most
    # (2d + 3)eps*s to first order, and a centre more than twice that above
    # its row's minimum is strictly farther under _exact_sq_dists than the
    # first exact argmin. The slack doubles that margin again and adds
    # d * tiny for underflow.
    dim = points.shape[1]
    info = np.finfo(np.float64)
    slack = 8 * (dim + 2) * info.eps * (sq_norms + sq_centres.max()) + dim * info.tiny
    candidate = expanded <= (expanded.min(axis=1) + slack)[:, None]
    labels = np.argmax(candidate, axis=1)     # the first candidate, the only one on most rows
    ties = np.flatnonzero(candidate.sum(axis=1) > 1)
    if ties.size:
        rows, cols = np.nonzero(candidate[ties])
        exact = np.full((ties.size, centres.shape[0]), np.inf)
        exact[rows, cols] = _exact_sq_dists(points[ties[rows]], centres[cols])
        labels[ties] = np.argmin(exact, axis=1)
    return labels


def _centre_means(points: np.ndarray, labels: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Each used label's mean point, summed in point order; an unused
    label keeps its centre."""
    grouped = points[np.argsort(labels, kind="stable")]
    counts = np.bincount(labels, minlength=centres.shape[0])
    ends = np.cumsum(counts)
    used = np.flatnonzero(counts)
    new_centres = centres.copy()
    # label j's slice holds the same rows in the same order as
    # points[labels == j], so the same sums bit for bit
    new_centres[used] = slice_means(grouped, ends[used] - counts[used], ends[used])
    return new_centres


def _farthest_point_kmeans(points: np.ndarray, k: int, seed,
                           seed_rows: Optional[dict] = None) -> tuple[np.ndarray, float]:
    """Seeded greedy max-min init, then Lloyd iterations. Returns labels and distortion.

    ``seed_rows`` maps a point's index to its read-only
    :func:`_exact_sq_dists` row against all points, looked up or built by
    :func:`~photoseg.datamodel._held`, so callers running several restarts
    on the same points share them.
    """
    n = points.shape[0]
    # without a caller's table, the seeding and the first assignment share one
    rows = {} if seed_rows is None else seed_rows

    def row(i: int) -> np.ndarray:
        return _held(rows, i, _exact_sq_dists, points, points[i])

    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d = np.full(n, np.inf)  # squared distance to the nearest chosen centre
    for _ in range(k - 1):
        d = np.minimum(d, row(chosen[-1]))
        chosen.append(int(np.argmax(d)))
    centres = points[chosen]
    sq_norms = (points ** 2).sum(axis=1)
    for step in range(100):
        if step:
            labels = _nearest_centres(points, sq_norms, centres)
        else:
            # the first centres are points, whose exact rows are known
            labels = np.argmin(np.stack([row(c) for c in chosen]), axis=0)
        new_centres = _centre_means(points, labels, centres)
        if np.allclose(new_centres, centres):
            centres = new_centres
            break
        centres = new_centres
    distortion = float(((points - centres[labels]) ** 2).sum())
    return labels, distortion


def _spectral_labels(weights: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Normalized-Laplacian embedding followed by seeded k-means; the
    restarts share their seed rows."""
    v = weights.shape[0]
    degree = weights.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    pos = degree > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(degree[pos])
    lap = np.eye(v) - (weights * inv_sqrt[:, None]) * inv_sqrt[None, :]
    _, eigvecs = np.linalg.eigh(lap)
    embedding = unit_rows(eigvecs[:, :k])

    best_labels, best_distortion = None, np.inf
    seed_rows: dict = {}
    for r in range(_KMEANS_RESTARTS):
        labels, distortion = _farthest_point_kmeans(embedding, k, seed=[seed, r],
                                                    seed_rows=seed_rows)
        if distortion < best_distortion:
            best_labels, best_distortion = labels, distortion
    return best_labels


def _pick_representative(members: list[str], tag_index: dict[str, int],
                         weights: np.ndarray) -> str:
    # highest within-cluster similarity sum, ties broken by tag order
    idx = [tag_index[m] for m in members]
    sums = weights[np.ix_(idx, idx)].sum(axis=1)
    best = min(zip(-sums, members))
    return best[1]


def cluster_concepts(graph: ConceptGraph, k: int, seed: int = 0) -> SemanticVocabulary:
    """Partition the tag graph into at most ``min(k, |V|)`` concept clusters.

    When ``k`` is at least the vertex count every tag becomes its own
    cluster. Cluster order is by representative tag, so the semantic
    feature columns are stable across runs. ``seed`` must be >= 0 on
    either path.
    """
    if k < 1:
        raise ValidationError(f"cluster count must be >= 1, got {k}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    tags = graph.tags
    if k >= len(tags):
        clusters = [ConceptCluster(t, (t,)) for t in sorted(tags)]
        return SemanticVocabulary(tuple(clusters))

    labels = _spectral_labels(graph.weights, k, seed)
    tag_index = {t: i for i, t in enumerate(tags)}
    groups: dict[int, list[str]] = {}
    for tag, lab in zip(tags, labels):
        groups.setdefault(int(lab), []).append(tag)
    clusters = []
    for members in groups.values():
        members = sorted(members)
        rep = _pick_representative(members, tag_index, graph.weights)
        clusters.append(ConceptCluster(rep, tuple(members)))
    clusters.sort(key=lambda c: c.representative)
    return SemanticVocabulary(tuple(clusters))


def assemble_semantic_features(det: ConceptDetections, vocab: SemanticVocabulary) -> np.ndarray:
    """Per-frame concept confidences, shape (n, vocabulary size).

    Cell (i, j) sums the confidences of frame i's tags that belong to
    cluster j; the whole matrix is then rescaled by its global maximum so
    values lie in [0, 1]. An all-zero matrix stays all-zero.
    """
    mapping = vocab.tag_to_cluster()
    tags = [tag for frame in det.frames for tag, _ in frame]
    cols = np.array([mapping.get(tag, -1) for tag in tags], dtype=np.intp)
    frame_of = np.repeat(np.arange(det.n), [len(frame) for frame in det.frames])
    unknown = np.flatnonzero(cols < 0)
    if unknown.size:
        first = unknown[0]
        raise ValidationError(f"frame {frame_of[first]}: tag {tags[first]!r} not in the vocabulary")
    out = np.zeros((det.n, vocab.size), dtype=np.float64)
    # unbuffered, in detection order: a frame's repeated cluster sums its
    # confidences in the same order as a loop would
    confs = np.array([conf for frame in det.frames for _, conf in frame], dtype=np.float64)
    np.add.at(out, (frame_of, cols), confs)
    peak = out.max() if out.size else 0.0
    if peak > 0:
        out /= peak
    return out


def smooth_temporal(matrix: np.ndarray, bandwidth: float = 3.0) -> np.ndarray:
    """Kernel-smooth each concept column along the frame axis.

    Discrete Gaussian of standard deviation ``bandwidth`` frames, truncated
    at 3 bandwidths and renormalized at the sequence ends so a constant
    column passes through unchanged. Output is clamped to [0, 1]. A
    bandwidth that is not finite and positive, or a NaN or inf entry,
    raises :class:`ValidationError`.
    """
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise ValidationError(f"bandwidth must be positive and finite, got {bandwidth}")
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError("expected an (n, concepts) matrix")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    n = m.shape[0]
    radius = int(np.ceil(3.0 * bandwidth))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / bandwidth) ** 2)
    kernel /= kernel.sum()
    smoothed = _symmetric_smooth(m, kernel)
    smoothed /= _symmetric_smooth(np.ones(n), kernel)[:, None]
    return np.clip(smoothed, 0.0, 1.0)


def _symmetric_smooth(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate ``values`` along axis 0 with an odd, exactly symmetric
    ``kernel``, zeros beyond both ends.

    Bit for bit ``scipy.ndimage.convolve1d(values, kernel, axis=0,
    mode="constant")``: the centre term first, then each mirrored pair
    summed before weighting, outermost pair first.
    """
    r = kernel.size // 2
    n = values.shape[0]
    pad = np.zeros((n + 2 * r,) + values.shape[1:])
    pad[r:r + n] = values
    out = pad[r:r + n] * kernel[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(pad[r - j:r - j + n], pad[r + j:r + j + n], out=pair)
        pair *= kernel[r + j]
        out += pair
    return out


def prune_low_variance(matrix: np.ndarray, threshold: float = 0.05
                       ) -> tuple[np.ndarray, list[int]]:
    """Drop concept columns whose temporal standard deviation is below threshold.

    Returns the surviving columns (order preserved) and their original
    indices, so vocabulary columns stay traceable. May return an (n, 0)
    matrix; callers then proceed on contextual features alone.
    """
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    m = np.asarray(matrix, dtype=np.float64)
    # m[:, kept] comes back Fortran-ordered, and std sums in layout order:
    # deciding on the same layout keeps the returned columns' stds the ones
    # compared here, bit for bit
    stds = np.asfortranarray(m).std(axis=0)
    kept = [j for j in range(m.shape[1]) if stds[j] >= threshold]
    return m[:, kept], kept
