import math

import numpy as np
import pytest

from photoseg.datamodel import Segmentation, ValidationError
from photoseg.graphcut import (
    GcParams,
    _centroid_similarities,
    _chain_optimum,
    _pair_energies,
    build_label_space,
    labeling_energy,
    labeling_from_segmentation,
    minimize,
    minimize_labels,
    pairwise_energy,
    unary_energies,
)

from oracles import (
    brute_force_energy,
    brute_force_min_labeling,
    inline_adjacent_energies,
    inline_centroid_similarities,
    per_pair_labeling_energy,
    prefix_scan_chain_optimum,
)

E_MINUS_1 = 0.36787944117144233
E_MINUS_2 = 0.1353352832366127


def random_instance(rng, n_max=10, labels_max=4):
    n = int(rng.integers(2, n_max + 1))
    num_labels = int(rng.integers(1, labels_max + 1))
    mixed = rng.uniform(0, 5, size=(n, num_labels))
    stream = rng.normal(size=(n, 3))
    return mixed, stream


class TestBuildLabelSpace:
    def test_union_of_boundaries(self):
        seg_ac = Segmentation(10, (0, 4))
        seg_adw = Segmentation(10, (0, 6))
        ls = build_label_space(seg_ac, seg_adw, np.zeros((10, 2)))
        assert ls.atomic.starts == (0, 4, 6)
        assert ls.atomic.segments() == [(0, 3), (4, 5), (6, 9)]

    def test_identical_inputs_idempotent(self):
        seg = Segmentation(8, (0, 3, 5))
        ls = build_label_space(seg, seg, np.zeros((8, 2)))
        assert ls.atomic == seg

    def test_degenerate_single_segment(self):
        seg = Segmentation(7, (0,))
        ls = build_label_space(seg, seg, np.ones((7, 3)))
        assert ls.atomic == seg and ls.num_labels == 1

    def test_centroids_are_segment_means(self):
        rng = np.random.default_rng(0)
        stream = rng.normal(size=(10, 3))
        seg_ac = Segmentation(10, (0, 4))
        seg_adw = Segmentation(10, (0, 6))
        ls = build_label_space(seg_ac, seg_adw, stream)
        np.testing.assert_allclose(ls.centroids_ac[0], stream[:4].mean(axis=0))
        np.testing.assert_allclose(ls.centroids_ac[1], stream[4:].mean(axis=0))
        # atomic interval 1 ([4, 5]) lies in adwin segment [0, 5]
        np.testing.assert_allclose(ls.centroids_adw[1], stream[:6].mean(axis=0))

    def test_frame_count_mismatch(self):
        with pytest.raises(ValidationError, match="disagree"):
            build_label_space(Segmentation(5, (0,)), Segmentation(6, (0,)),
                              np.zeros((5, 2)))


class TestUnaryEnergies:
    def test_single_label_zero_energy(self):
        seg = Segmentation(5, (0,))
        stream = np.random.default_rng(1).normal(size=(5, 3))
        ls = build_label_space(seg, seg, stream)
        u_ac, u_adw = unary_energies(ls, stream, GcParams())
        np.testing.assert_allclose(u_ac, 0.0, atol=1e-12)
        np.testing.assert_allclose(u_adw, 0.0, atol=1e-12)

    def test_two_equal_labels_cost_ln2(self):
        # two atomic intervals with identical centroids: p = 0.5 each
        stream = np.tile([1.0, 0.0], (6, 1))
        seg = Segmentation(6, (0, 3))
        ls = build_label_space(seg, seg, stream)
        u_ac, _ = unary_energies(ls, stream, GcParams())
        np.testing.assert_allclose(u_ac, math.log(2.0), atol=1e-12)

    def test_matching_centroid_dominates_at_low_temperature(self):
        stream = np.vstack([np.tile([1.0, 0.0], (4, 1)), np.tile([0.0, 1.0], (4, 1))])
        seg = Segmentation(8, (0, 4))
        ls = build_label_space(seg, seg, stream)
        u_ac, _ = unary_energies(ls, stream, GcParams(softmax_temp=0.01))
        assert u_ac[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert u_ac[0, 1] > 50

    def test_energies_finite(self):
        rng = np.random.default_rng(2)
        stream = rng.normal(size=(12, 4))
        stream[3] = 0.0                       # zero vector must stay finite
        seg_ac = Segmentation(12, (0, 3, 7))
        seg_adw = Segmentation(12, (0, 5))
        ls = build_label_space(seg_ac, seg_adw, stream)
        u_ac, u_adw = unary_energies(ls, stream, GcParams())
        assert np.isfinite(u_ac).all() and np.isfinite(u_adw).all()


class TestPairwiseEnergy:
    def test_identical(self):
        got = pairwise_energy(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        got = pairwise_energy(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(E_MINUS_1, abs=1e-15)

    def test_opposite(self):
        got = pairwise_energy(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert got == pytest.approx(E_MINUS_2, abs=1e-15)


class TestMinimize:
    def test_dp_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for case in range(180):
            radius = 1 + case % 3
            mixed, stream = random_instance(rng)
            w2 = float(rng.uniform(0, 1))
            params = GcParams(unary_mix=0.0, pairwise_weight=w2, radius=radius)
            # feed the mixed table as the ac unary so the mix is identity
            labels = minimize_labels(_fake_ls(mixed, stream), mixed,
                                     np.zeros_like(mixed), stream, params)
            got = labeling_energy(labels, mixed, np.zeros_like(mixed), stream, params)
            want, _ = brute_force_min_labeling(mixed, stream, w2, radius)
            assert got == pytest.approx(want, abs=1e-9)

    def test_radius_2_optimum_beyond_single_frame_moves(self):
        # the radius-1 optimum is [0, 0, 0]; at radius 2, [0, 1, 1] is lower,
        # but no single monotone frame move from [0, 0, 0] lowers the
        # energy: frame 1 is held at 0 by frame 2, and [0, 0, 1] is higher
        mixed = np.array([[0.0, 2.0], [3.0, 2.0], [0.0, 0.0]])
        stream = np.array([[1.0, -1.0], [0.0, -1.0], [-1.0, 1.0]])
        zeros = np.zeros_like(mixed)
        for radius, want in ((1, [0, 0, 0]), (2, [0, 1, 1])):
            params = GcParams(unary_mix=0.0, pairwise_weight=1.0, radius=radius)
            labels = minimize_labels(_fake_ls(mixed, stream), mixed, zeros, stream, params)
            assert labels.tolist() == want
            want_energy, _ = brute_force_min_labeling(mixed, stream, 1.0, radius)
            got = labeling_energy(labels, mixed, zeros, stream, params)
            assert got == pytest.approx(want_energy, abs=1e-12)
        p2 = GcParams(unary_mix=0.0, pairwise_weight=1.0, radius=2)
        assert labeling_energy([0, 0, 1], mixed, zeros, stream, p2) > \
            labeling_energy([0, 0, 0], mixed, zeros, stream, p2)

    def test_unaries_only_argmin_with_monotone_constraint(self):
        # crafted so per-frame argmin is itself monotone, then the DP must
        # return it exactly
        mixed = np.array([
            [0.1, 5.0, 5.0],
            [0.2, 5.0, 5.0],
            [5.0, 0.3, 5.0],
            [5.0, 5.0, 0.1],
        ])
        stream = np.ones((4, 2))
        params = GcParams(unary_mix=0.0, pairwise_weight=0.0)
        labels = minimize_labels(_fake_ls(mixed, stream), mixed,
                                 np.zeros_like(mixed), stream, params)
        assert labels.tolist() == [0, 0, 1, 2]

    def test_smoothing_flips_noisy_frame(self):
        # frame 3 weakly prefers label 1 inside a label-0 run; the
        # pairwise term absorbs it
        mixed = np.full((6, 2), 1.0)
        mixed[:, 1] += 0.05
        mixed[3, 0] = 1.12
        mixed[3, 1] = 1.0
        stream = np.ones((6, 2))              # all similar: switching costs most
        params = GcParams(unary_mix=0.0, pairwise_weight=1.0)
        labels = minimize_labels(_fake_ls(mixed, stream), mixed,
                                 np.zeros_like(mixed), stream, params)
        want_energy, want_labels = brute_force_min_labeling(mixed, stream, 1.0, 1)
        got_energy = labeling_energy(labels, mixed, np.zeros_like(mixed), stream, params)
        assert got_energy == pytest.approx(want_energy, abs=1e-12)
        assert labels.tolist() == [0] * 6 == list(want_labels)

    def test_single_label_single_segment(self):
        stream = np.random.default_rng(3).normal(size=(5, 2))
        seg = Segmentation(5, (0,))
        ls = build_label_space(seg, seg, stream)
        u_ac, u_adw = unary_energies(ls, stream, GcParams())
        out = minimize(ls, u_ac, u_adw, stream, GcParams())
        assert out == Segmentation(5, (0,))

    def test_returned_energy_no_worse_than_candidates(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(4, 12))
            stream = rng.normal(size=(n, 3))
            seg_ac = _random_segmentation(rng, n)
            seg_adw = _random_segmentation(rng, n)
            ls = build_label_space(seg_ac, seg_adw, stream)
            params = GcParams(unary_mix=float(rng.uniform(0, 1)),
                              pairwise_weight=float(rng.uniform(0, 1)))
            u_ac, u_adw = unary_energies(ls, stream, params)
            labels = minimize_labels(ls, u_ac, u_adw, stream, params)
            e = labeling_energy(labels, u_ac, u_adw, stream, params)
            for cand in (seg_ac, seg_adw):
                cand_labels = labeling_from_segmentation(cand, ls)
                cand_e = labeling_energy(cand_labels, u_ac, u_adw, stream, params)
                assert e <= cand_e + 1e-9

    def test_pure_ac_and_pure_adwin_recover_argmin(self):
        rng = np.random.default_rng(5)
        u_ac = rng.uniform(0, 3, size=(7, 3))
        u_adw = rng.uniform(0, 3, size=(7, 3))
        stream = rng.normal(size=(7, 2))
        for mix, table in ((0.0, u_ac), (1.0, u_adw)):
            params = GcParams(unary_mix=mix, pairwise_weight=0.0)
            labels = minimize_labels(_fake_ls(u_ac, stream), u_ac, u_adw,
                                     stream, params)
            want, _ = brute_force_min_labeling(table, stream, 0.0, 1)
            got = labeling_energy(labels, u_ac, u_adw, stream, params)
            assert got == pytest.approx(want, abs=1e-12)

    def test_radius_2_not_worse_than_radius_1_optimum(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            stream = rng.normal(size=(n, 3))
            seg_ac = _random_segmentation(rng, n)
            seg_adw = _random_segmentation(rng, n)
            ls = build_label_space(seg_ac, seg_adw, stream)
            p2 = GcParams(unary_mix=0.4, pairwise_weight=0.8, radius=2)
            u_ac, u_adw = unary_energies(ls, stream, p2)
            labels2 = minimize_labels(ls, u_ac, u_adw, stream, p2)
            p1 = GcParams(unary_mix=0.4, pairwise_weight=0.8, radius=1)
            labels1 = minimize_labels(ls, u_ac, u_adw, stream, p1)
            e2 = labeling_energy(labels2, u_ac, u_adw, stream, p2)
            e1_under_r2 = labeling_energy(labels1, u_ac, u_adw, stream, p2)
            assert e2 <= e1_under_r2 + 1e-9

    def test_boundary_count_bounded_by_labels(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            stream = rng.normal(size=(n, 3))
            seg_ac = _random_segmentation(rng, n)
            seg_adw = _random_segmentation(rng, n)
            ls = build_label_space(seg_ac, seg_adw, stream)
            u_ac, u_adw = unary_energies(ls, stream, GcParams())
            out = minimize(ls, u_ac, u_adw, stream, GcParams())
            assert out.num_segments <= ls.num_labels


class TestLabelingEnergyDefinition:
    def test_matches_brute_force_formula(self):
        rng = np.random.default_rng(13)
        for radius in (1, 2, 3):
            n = 8
            mixed = rng.uniform(0, 2, size=(n, 3))
            stream = rng.normal(size=(n, 2))
            labels = np.sort(rng.integers(0, 3, size=n))
            params = GcParams(unary_mix=0.0, pairwise_weight=0.7, radius=radius)
            got = labeling_energy(labels, mixed, np.zeros_like(mixed), stream, params)
            want = brute_force_energy(labels, mixed, stream, 0.7, radius)
            assert got == pytest.approx(want, abs=1e-12)


def _random_segmentation(rng, n):
    k = int(rng.integers(0, min(4, n)))
    starts = sorted(set(rng.choice(np.arange(1, n), size=k, replace=False).tolist()))
    return Segmentation(n, tuple([0] + starts))


def _fake_ls(mixed, stream):
    """Label space stand-in when a test drives the unary tables directly."""
    n, num_labels = mixed.shape

    class _LS:
        pass

    ls = _LS()
    ls.num_labels = num_labels
    ls.atomic = None
    return ls


def _reference_case(rng, case):
    """Unary table, stream, radius and weight for one seeded case: random
    or integer-valued (tied) unaries; random, 0/1 or partly zero rows; n = 1
    and a single label included."""
    n = 1 if case % 25 == 0 else int(rng.integers(2, 40))
    num_labels = 1 if case % 20 == 1 else int(rng.integers(2, 12))
    if case % 3 == 0:
        mixed = rng.uniform(0, 5, size=(n, num_labels))
    else:
        mixed = rng.integers(0, 3, size=(n, num_labels)) * (0.5 if case % 3 == 2 else 1.0)
    stream = rng.normal(size=(n, 4))
    if case % 4 == 1:
        stream = rng.integers(0, 2, size=(n, 4)).astype(np.float64)
    elif case % 4 == 2:
        stream[rng.random(n) < 0.3] = 0.0
    weight = (0.0, 1.0, float(rng.uniform(0, 1)))[case % 5 % 3]
    return mixed, stream, 1 + case % 3, weight


class TestAgainstLoopReferences:
    def test_labels_and_energy_bitwise_equal(self):
        rng = np.random.default_rng(51)
        for case in range(330):
            mixed, stream, radius, weight = _reference_case(rng, case)
            params = GcParams(unary_mix=0.0, pairwise_weight=weight, radius=radius)
            chain_params = GcParams(unary_mix=0.0, pairwise_weight=weight, radius=1)
            chain = _chain_optimum(mixed, stream, chain_params)
            np.testing.assert_array_equal(
                chain, prefix_scan_chain_optimum(mixed, stream, chain_params))
            start = np.sort(rng.integers(0, mixed.shape[1], size=mixed.shape[0]))
            zeros = np.zeros_like(mixed)
            for labels in (chain, _chain_optimum(mixed, stream, params), start):
                assert labeling_energy(labels, mixed, zeros, stream, params) == \
                    per_pair_labeling_energy(labels, mixed, zeros, stream, params)

    def test_unit_row_sites_bitwise_equal_inline_forms(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 6))
            stream, centroids = rng.normal(size=(n, d)), rng.normal(size=(4, d))
            for m in (stream, centroids):
                m[rng.random(m.shape[0]) < 0.2] = 0.0
                m[rng.random(m.shape[0]) < 0.2] = -0.0
            assert _centroid_similarities(stream, centroids).tobytes() == \
                inline_centroid_similarities(stream, centroids).tobytes()
            assert _pair_energies(stream, 1)[:-1, 2].tobytes() == \
                inline_adjacent_energies(stream).tobytes()

    def test_pair_table_bitwise_equals_per_pair_calls(self):
        rng = np.random.default_rng(29)
        for case in range(300):
            n, d = int(rng.integers(1, 14)), int(rng.integers(1, 320 if case % 10 == 0 else 6))
            stream = rng.normal(size=(n, d))
            if case % 3 == 1:
                stream = rng.integers(0, 2, size=(n, d)).astype(np.float64)
            stream[rng.random(n) < 0.2] = 0.0
            stream[rng.random(n) < 0.2] = -0.0
            radius = 1 + case % 3
            want = np.zeros((n, 2 * radius + 1))
            for i in range(n):
                for j in range(max(0, i - radius), min(n, i + radius + 1)):
                    if j != i:
                        want[i, j - i + radius] = pairwise_energy(stream[i], stream[j])
            assert _pair_energies(stream, radius).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("table", ["ac", "adw"])
    def test_non_finite_unary_rejected(self, bad, table):
        rng = np.random.default_rng(7)
        u_ac = rng.uniform(0, 3, size=(5, 3))
        u_adw = rng.uniform(0, 3, size=(5, 3))
        (u_ac if table == "ac" else u_adw)[2, 1] = bad
        stream = rng.normal(size=(5, 2))
        with pytest.raises(ValidationError, match="finite"):
            minimize_labels(_fake_ls(u_ac, stream), u_ac, u_adw, stream, GcParams())
