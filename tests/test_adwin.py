import numpy as np
import pytest

from photoseg.adwin import AdwinParams, detect_changes, epsilon_cut, rescale_to_unit
from photoseg.datamodel import Segmentation, ValidationError

from oracles import full_rescan_adwin, offline_split_scan

# sqrt(ln(40)/16), evaluated at high precision
EPS_CUT_K1_P2_M8 = 0.48016139565996035


def mean_shift_fixture(seed=42, n_per_side=100, low=0.1, high=0.9, jitter=0.02):
    rng = np.random.default_rng(seed)
    x = np.concatenate([
        low + rng.uniform(-jitter, jitter, n_per_side),
        high + rng.uniform(-jitter, jitter, n_per_side),
    ])
    return x[:, None]


class TestEpsilonCut:
    def test_closed_form_value(self):
        assert epsilon_cut(8, 1, 0.1, 2) == pytest.approx(EPS_CUT_K1_P2_M8, abs=1e-15)

    def test_shrinks_with_m(self):
        assert epsilon_cut(100, 4, 0.01, 2) < epsilon_cut(10, 4, 0.01, 2)

    def test_degenerate_confidence_never_fires(self):
        # dim * delta' >= 4 makes the bound vacuous: nothing is significant
        assert epsilon_cut(10, 10, 0.5, 2) == np.inf


class TestDetectChanges:
    def test_constant_stream_single_segment(self):
        stream = np.full((50, 3), 0.4)
        seg = detect_changes(stream, AdwinParams(delta=0.5))
        assert seg == Segmentation(50, (0,))

    def test_mean_shift_detected_at_change(self):
        seg = detect_changes(mean_shift_fixture(), AdwinParams(delta=0.1))
        assert len(seg.boundaries) == 1
        assert abs(seg.boundaries[0] - 100) <= 5

    def test_fixture_change_is_strongest_at_true_split(self):
        # offline scan over the whole stream: the 0.8 mean gap beats the
        # bound at the true split, and the strongest violation of the
        # bound sits exactly there (diluted splits also clear the bound
        # once the window spans the change, but with less margin)
        scan = offline_split_scan(mean_shift_fixture(), delta=0.1)
        split, gap, eps = max(scan, key=lambda row: row[1] - row[2])
        assert gap > eps
        assert split == 100

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="rescale"):
            detect_changes(np.array([[0.5], [1.5]]), AdwinParams())

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            detect_changes(np.zeros((0, 2)), AdwinParams())

    def test_rejects_nan(self):
        stream = np.random.default_rng(3).uniform(size=(30, 4))
        stream[12, 2] = np.nan
        with pytest.raises(ValidationError, match="frame 12"):
            detect_changes(stream, AdwinParams())

    def test_monotone_sensitivity_on_fixtures(self):
        fixtures = [mean_shift_fixture(seed=s) for s in (42, 43, 44)]
        rng = np.random.default_rng(5)
        two_change = np.concatenate([
            0.2 + rng.uniform(-0.05, 0.05, 60),
            0.5 + rng.uniform(-0.05, 0.05, 60),
            0.9 + rng.uniform(-0.05, 0.05, 60),
        ])[:, None]
        fixtures.append(two_change)
        for stream in fixtures:
            previous = set()
            for delta in (0.01, 0.05, 0.1, 0.3):
                found = set(detect_changes(stream, AdwinParams(delta=delta)).boundaries)
                assert previous <= found
                previous = found

    def test_matches_full_rescan_oracle_bit_exactly(self):
        rng = np.random.default_rng(123)
        for trial in range(30):
            n = int(rng.integers(4, 65))
            k = int(rng.integers(1, 5))
            stream = rng.uniform(0, 1, size=(n, k))
            if trial % 3 == 0:   # plant a shift in some streams
                stream[n // 2:] = np.clip(stream[n // 2:] + 0.45, 0, 1)
            for delta in (0.05, 0.2):
                params = AdwinParams(delta=delta)
                got = detect_changes(stream, params).boundaries
                want = tuple(full_rescan_adwin(stream, delta))
                assert got == want

    def test_output_always_valid_segmentation(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            stream = rng.uniform(0, 1, size=(rng.integers(1, 80), rng.integers(1, 4)))
            seg = detect_changes(stream, AdwinParams(delta=0.3))
            assert seg.n == stream.shape[0]
            covered = [f for s, e in seg.segments() for f in range(s, e + 1)]
            assert covered == list(range(seg.n))

    def test_false_positive_rate_smoke(self):
        delta = 0.1
        with_false = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            stream = rng.uniform(0, 1, size=(500, 4))
            if detect_changes(stream, AdwinParams(delta=delta)).boundaries:
                with_false += 1
        assert with_false / 50 <= 3 * delta


class TestRescaleToUnit:
    def test_affine_map(self):
        np.testing.assert_allclose(
            rescale_to_unit(np.array([[-1.0], [0.0], [1.0]])),
            np.array([[0.0], [0.5], [1.0]]))

    def test_constant_column_maps_to_half(self):
        np.testing.assert_array_equal(
            rescale_to_unit(np.full((3, 1), 3.0)), np.full((3, 1), 0.5))

    def test_full_range_column_unchanged(self):
        col = np.array([[0.0], [0.25], [1.0]])
        np.testing.assert_array_equal(rescale_to_unit(col), col)
