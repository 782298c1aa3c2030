import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet
from scipy.spatial.distance import squareform

from photoseg.agglo import (
    LINKAGES,
    MONOTONE_LINKAGES,
    AggloParams,
    cluster_frames,
    cosine_distance,
    cosine_distance_matrix,
    cut_merge_sequence,
    linkage_merge_sequence,
)
from photoseg.datamodel import Segmentation, ValidationError

from oracles import (
    blas_cosine_distance,
    inline_cosine_distance_matrix,
    naive_merge_sequence,
    walk_cut_merge_sequence,
)


class TestCosineDistance:
    def test_identical_nonzero(self):
        assert cosine_distance([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_opposite(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)

    def test_zero_vector_convention(self):
        assert cosine_distance([0.0, 0.0], [1.0, 0.0]) == 1.0
        assert cosine_distance([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(6, 4))
        rows[2] = 0.0
        d = cosine_distance_matrix(rows)
        for i in range(6):
            for j in range(6):
                if i == j:
                    assert d[i, j] == 0.0
                else:
                    assert d[i, j] == pytest.approx(
                        cosine_distance(rows[i], rows[j]), abs=1e-12)

    def test_within_an_ulp_of_blas_form(self):
        # the unit-row form moved some values by an ulp of 1 from the old
        # norm-and-dot form; zero vectors keep distance exactly 1
        rng = np.random.default_rng(17)
        for case in range(600):
            d = int(rng.integers(1, 320))
            a, b = rng.normal(size=d), rng.normal(size=d)
            if case % 3 == 1:
                a, b = (rng.integers(0, 2, size=(2, d)) * 1.0)
            elif case % 3 == 2:
                (a if case % 2 else b)[:] = -0.0 if case % 4 > 1 else 0.0
            got, want = cosine_distance(a, b), blas_cosine_distance(a, b)
            assert abs(got - want) <= 4e-16
            if not (a.any() and b.any()):
                assert got == want == 1.0

    def test_matrix_bitwise_equals_inline_unit_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rows = _rows_with_zero_rows(rng)
            assert cosine_distance_matrix(rows).tobytes() == \
                inline_cosine_distance_matrix(rows).tobytes()


def _rows_with_zero_rows(rng):
    """Random rows, some set to 0.0 and some to -0.0."""
    rows = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 6))))
    rows[rng.random(rows.shape[0]) < 0.2] = 0.0
    rows[rng.random(rows.shape[0]) < 0.2] = -0.0
    return rows


def _partition(labels):
    """Labels renumbered by first appearance: equal iff the partitions are."""
    first = {}
    return [first.setdefault(label, len(first)) for label in labels.tolist()]


def _oracle_inputs(rng, trials, n_max=8):
    """Random rows, rows with duplicates, and 0/1 rows, whose distances tie."""
    for trial in range(trials):
        n = int(rng.integers(2, n_max + 1))
        kind = trial % 3
        if kind == 0:
            rows = rng.normal(size=(n, 4))
        elif kind == 1:
            base = rng.normal(size=(max(1, n // 2), 4))
            rows = base[rng.integers(0, len(base), size=n)]
        else:
            rows = rng.integers(0, 2, size=(n, 3)).astype(np.float64)
        yield trial, rows


class TestMergeSequence:
    def test_matches_naive_oracle_all_linkages(self):
        rng = np.random.default_rng(42)
        for trial, rows in _oracle_inputs(rng, 300):
            dist = cosine_distance_matrix(rows)
            for linkage in LINKAGES:
                got = linkage_merge_sequence(dist, linkage)
                want = naive_merge_sequence(dist, linkage)
                got_pairs = [(int(a), int(b)) for a, b, _, _ in got]
                want_pairs = [(a, b) for a, b, _ in want]
                assert got_pairs == want_pairs, f"{linkage}, trial {trial}"
                np.testing.assert_allclose(
                    got[:, 2], [h for _, _, h in want], rtol=1e-9, atol=1e-12)

    def test_cophenetic_matches_scipy(self):
        from scipy.cluster.hierarchy import linkage as scipy_linkage
        rng = np.random.default_rng(3)
        # n = 300 has no tied distances and runs the cached-neighbour
        # bookkeeping through hundreds of invalidations and rescans
        for n, linkages in ((10, LINKAGES), (300, MONOTONE_LINKAGES)):
            rows = rng.normal(size=(n, 5))
            dist = cosine_distance_matrix(rows)
            condensed = squareform(dist, checks=False)
            assert np.unique(condensed).size == condensed.size
            for linkage in linkages:
                mine = linkage_merge_sequence(dist, linkage)
                theirs = scipy_linkage(condensed, method=linkage)
                np.testing.assert_allclose(cophenet(mine), cophenet(theirs),
                                           rtol=1e-8, atol=1e-10, err_msg=f"{linkage}, n={n}")

    def test_tie_break_prefers_lowest_pair(self):
        # four identical points: all pairs at distance 0
        rows = np.tile([1.0, 2.0], (4, 1))
        merges = linkage_merge_sequence(cosine_distance_matrix(rows), "single")
        assert [(int(a), int(b)) for a, b, _, _ in merges] == [(0, 1), (2, 3), (4, 5)]


class TestCut:
    def test_partitions_match_tree_walk(self):
        rng = np.random.default_rng(17)
        inversions = 0
        for trial, rows in _oracle_inputs(rng, 60, n_max=24):
            n = rows.shape[0]
            dist = cosine_distance_matrix(rows)
            for linkage in LINKAGES:
                merges = linkage_merge_sequence(dist, linkage)
                inversions += bool(np.any(np.diff(merges[:, 2]) < 0))
                # fixed cutoffs, and merge heights themselves, where the
                # strict < decides
                heights = rng.choice(merges[:, 2], size=min(n - 1, 6), replace=False)
                for cutoff in (0.05, 0.3, 0.7, 1.2, 2.5, *heights):
                    assert _partition(cut_merge_sequence(merges, n, cutoff)) == \
                        _partition(walk_cut_merge_sequence(merges, n, cutoff)), \
                        f"{linkage}, trial {trial}, cutoff {cutoff}"
        assert inversions > 0

    def test_single_frame(self):
        merges = linkage_merge_sequence(np.zeros((1, 1)), "average")
        assert cut_merge_sequence(merges, 1, 0.4).tolist() == [0]


class TestClusterFrames:
    def test_single_frame(self):
        seg = cluster_frames(np.array([[1.0, 0.0]]), AggloParams())
        assert seg == Segmentation(1, (0,))

    def test_cutoff_above_all_merges_gives_one_segment(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(0.5, 1.0, size=(12, 6))
        seg = cluster_frames(rows, AggloParams(linkage="complete", cutoff=10.0))
        assert seg == Segmentation(12, (0,))

    def test_two_blocks_split_by_cutoff(self):
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        rows = np.array([u, u, u, v, v, v])
        seg = cluster_frames(rows, AggloParams(linkage="single", cutoff=0.5))
        assert seg == Segmentation(6, (0, 3))

    def test_duplicates_always_co_clustered(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(5, 4))
        rows = np.vstack([base, base[2]])       # frame 5 duplicates frame 2
        for linkage in LINKAGES:
            dist = cosine_distance_matrix(rows)
            merges = linkage_merge_sequence(dist, linkage)
            labels = cut_merge_sequence(merges, rows.shape[0], cutoff=0.3)
            assert labels[2] == labels[5], linkage

    def test_boundaries_scale_invariant(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(20, 5))
        for linkage in LINKAGES:
            params = AggloParams(linkage=linkage, cutoff=0.6)
            a = cluster_frames(rows, params)
            b = cluster_frames(123.456 * rows, params)
            assert a.starts == b.starts, linkage

    def test_monotone_cutoff_for_monotone_linkages(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(18, 4))
        for linkage in MONOTONE_LINKAGES:
            dist = cosine_distance_matrix(rows)
            merges = linkage_merge_sequence(dist, linkage)
            counts = []
            for cutoff in (0.1, 0.3, 0.6, 0.9, 1.4):
                labels = cut_merge_sequence(merges, 18, cutoff)
                counts.append(len(set(labels.tolist())))
            assert counts == sorted(counts, reverse=True), linkage

    def test_rejects_non_finite_rows(self):
        rows = np.random.default_rng(3).uniform(size=(30, 4))
        rows[12, 2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            cluster_frames(rows, AggloParams())
        rows[12, 2] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            cluster_frames(rows, AggloParams())

    def test_rejects_unknown_linkage(self):
        with pytest.raises(ValidationError, match="linkage"):
            AggloParams(linkage="euclid")

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValidationError, match="cutoff"):
            AggloParams(cutoff=0.0)
