import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoseg.datamodel import Segmentation, ValidationError
from photoseg.evaluate import (
    MatchParams,
    evaluate_pair,
    f_measure,
    gce,
    lce,
    local_refinement_error,
    macro_fmeasure,
    match_boundaries,
    trivial_segmentations,
)

from oracles import brute_gce_lce, brute_local_error, segmentation_to_sets


def random_segmentation(rng, n):
    k = int(rng.integers(0, n))
    if k:
        starts = sorted(set(rng.choice(np.arange(1, n), size=k, replace=False).tolist()))
    else:
        starts = []
    return Segmentation(n, tuple([0] + starts))


def segmentations(max_n=40):
    return st.integers(1, max_n).flatmap(
        lambda n: st.sets(st.integers(1, max(1, n - 1)), max_size=n - 1).map(
            lambda bs: Segmentation(n, tuple(sorted({0} | bs)))
        )
    )


def seg_pairs(max_n=40):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.sets(st.integers(1, n - 1), max_size=n - 1),
            st.sets(st.integers(1, n - 1), max_size=n - 1),
        ).map(lambda bs: (
            Segmentation(n, tuple(sorted({0} | bs[0]))),
            Segmentation(n, tuple(sorted({0} | bs[1]))),
        ))
    )


class TestFMeasure:
    def test_perfect_match(self):
        seg = Segmentation(100, (0, 30, 60))
        report = f_measure(seg, seg)
        assert report.precision == report.recall == report.fmeasure == 1.0
        assert (report.tp, report.fp, report.fn) == (2, 0, 0)

    def test_counts_fixture(self):
        # TP=2, FP=1, FN=1: P = R = 2/3, FM = 2/3
        gt = Segmentation(100, (0, 20, 50, 90))
        pred = Segmentation(100, (0, 21, 49, 70))
        report = f_measure(pred, gt)
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)
        assert report.fmeasure == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_tolerance_edges(self):
        gt = Segmentation(200, (0, 100))
        assert f_measure(Segmentation(200, (0, 105)), gt).tp == 1
        rep = f_measure(Segmentation(200, (0, 106)), gt)
        assert (rep.tp, rep.fp, rep.fn) == (0, 1, 1)

    def test_no_boundaries_zero_fm(self):
        a = Segmentation(10, (0,))
        assert f_measure(a, a).fmeasure == 0.0

    def test_n_mismatch(self):
        with pytest.raises(ValidationError, match="disagree"):
            f_measure(Segmentation(5, (0,)), Segmentation(6, (0,)))

    def test_greedy_matches_earliest(self):
        # prediction at 10 matches gt 8 (earliest in range), not gt 12
        tp, fp, fn = match_boundaries([10], [8, 12], tolerance=5)
        assert (tp, fp, fn) == (1, 0, 1)

    def test_one_to_one(self):
        tp, fp, fn = match_boundaries([10, 11], [10], tolerance=5)
        assert (tp, fp, fn) == (1, 1, 0)

    @given(seg_pairs())
    @settings(max_examples=150, deadline=None)
    def test_tolerance_monotonicity(self, pair):
        pred, gt = pair
        tps = [f_measure(pred, gt, MatchParams(t)).tp for t in (0, 1, 2, 5, 11)]
        assert tps == sorted(tps)


class TestLocalRefinementError:
    def test_refinement_direction_zero(self):
        fine = Segmentation(10, (0, 5))
        coarse = Segmentation(10, (0,))
        for i in range(10):
            assert local_refinement_error(fine, coarse, i) == 0.0

    def test_half_overlap(self):
        # R_A(2) = {2, 3}, R_B(2) = {0, 1, 2}: |{3}| / 2
        seg_a = Segmentation(4, (0, 2))
        seg_b = Segmentation(4, (0, 3))
        assert local_refinement_error(seg_a, seg_b, 2) == 0.5

    def test_identical_zero_everywhere(self):
        seg = Segmentation(9, (0, 4, 6))
        assert all(local_refinement_error(seg, seg, i) == 0.0 for i in range(9))

    def test_index_out_of_range(self):
        seg = Segmentation(5, (0,))
        for i in (5, -1):
            with pytest.raises(ValidationError):
                local_refinement_error(seg, seg, i)

    def test_matches_brute_force_at_every_frame(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            seg_a, seg_b = random_segmentation(rng, n), random_segmentation(rng, n)
            sets_a = segmentation_to_sets(seg_a.starts, n)
            sets_b = segmentation_to_sets(seg_b.starts, n)
            for i in range(n):
                assert local_refinement_error(seg_a, seg_b, i) == \
                    brute_local_error(sets_a, sets_b, i)


class TestConsistencyErrors:
    def test_identical_zero(self):
        seg = Segmentation(12, (0, 3, 9))
        assert gce(seg, seg) == 0.0
        assert lce(seg, seg) == 0.0

    def test_proper_refinement_zero(self):
        fine = Segmentation(10, (0, 5))
        coarse = Segmentation(10, (0,))
        assert gce(fine, coarse) == 0.0
        assert lce(fine, coarse) == 0.0

    def test_hand_derived_pair(self):
        # n=4, A = {[0,1],[2,3]}, B = {[0,2],[3,3]}
        seg_a = Segmentation(4, (0, 2))
        seg_b = Segmentation(4, (0, 3))
        assert gce(seg_a, seg_b) == pytest.approx(0.25, abs=1e-15)
        assert lce(seg_a, seg_b) == pytest.approx(0.125, abs=1e-15)

    def test_trivial_segmentations_score_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            other = random_segmentation(rng, n)
            whole, per_frame = trivial_segmentations(n)
            assert whole.starts == (0,)
            assert per_frame.starts == tuple(range(n))
            for trivial in (whole, per_frame):
                assert gce(trivial, other) == 0.0
                assert lce(trivial, other) == 0.0

    @given(seg_pairs())
    @settings(max_examples=150, deadline=None)
    def test_lce_at_most_gce_and_symmetric(self, pair):
        a, b = pair
        g, l = gce(a, b), lce(a, b)
        assert 0.0 <= l <= g <= 1.0
        assert gce(b, a) == pytest.approx(g, abs=1e-12)
        assert lce(b, a) == pytest.approx(l, abs=1e-12)

    def test_matches_brute_force_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            a = random_segmentation(rng, n)
            b = random_segmentation(rng, n)
            want_g, want_l = brute_gce_lce(a.starts, b.starts, n)
            assert gce(a, b) == pytest.approx(want_g, abs=1e-12)
            assert lce(a, b) == pytest.approx(want_l, abs=1e-12)


def test_evaluate_pair_combines_all_fields():
    pred = Segmentation(50, (0, 10, 30))
    gt = Segmentation(50, (0, 12, 30))
    report = evaluate_pair(pred, gt)
    assert report.fmeasure == 1.0
    assert report.gce is not None and report.lce is not None
    assert report.lce <= report.gce


def test_reports_are_immutable():
    report = evaluate_pair(Segmentation(20, (0, 8)), Segmentation(20, (0, 9)))
    for field in ("fmeasure", "gce", "lce"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, field, 0.0)


def test_macro_fmeasure():
    a = evaluate_pair(Segmentation(10, (0, 5)), Segmentation(10, (0, 5)))
    b = evaluate_pair(Segmentation(10, (0, 2)), Segmentation(10, (0, 8)))
    assert macro_fmeasure([a, b]) == pytest.approx((a.fmeasure + b.fmeasure) / 2)
