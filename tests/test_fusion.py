import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from photoseg.datamodel import ValidationError
from photoseg.fusion import BLOCK_ROWS, fuse, signed_root_normalize, slice_means, unit_rows

from oracles import norm_unit_rows, sign_root_normalize

# 2 / sqrt(8), by hand
ROOT_HALF = 0.7071067811865476


class TestSignedRootNormalize:
    def test_hand_example(self):
        out = signed_root_normalize(np.array([4.0, 0.0, -4.0]))
        np.testing.assert_allclose(out, [ROOT_HALF, 0.0, -ROOT_HALF], atol=1e-12)

    def test_zero_vector(self):
        np.testing.assert_array_equal(signed_root_normalize(np.zeros(3)), np.zeros(3))

    def test_unit_scalar_fixed_point(self):
        np.testing.assert_allclose(signed_root_normalize(np.array([1.0])), [1.0])

    @given(arrays(np.float64, st.integers(1, 12),
                  elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=200, deadline=None)
    def test_unit_norm_and_odd(self, v):
        out = signed_root_normalize(v)
        if np.any(v != 0):
            assert np.linalg.norm(out) == pytest.approx(1.0)
        np.testing.assert_allclose(signed_root_normalize(-v), -out, atol=1e-12)

    def test_matrix_rows(self):
        m = np.array([[4.0, 0.0, -4.0], [0.0, 0.0, 0.0]])
        out = signed_root_normalize(m)
        np.testing.assert_allclose(out[0], [ROOT_HALF, 0.0, -ROOT_HALF], atol=1e-12)
        np.testing.assert_array_equal(out[1], np.zeros(3))


    def test_bitwise_equal_to_sign_times_root(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(40, 9))
        m[::7] = -0.0
        m[1, :4] = [-0.0, 0.0, 5e-324, -2.2e-310]
        m[2] = np.ldexp(rng.normal(size=9), -1060)   # subnormal rows
        m[3:20] *= 1e150
        m[20:35] *= 1e-150
        for x in (m, m[5], m[0], np.array([-0.0, 1.0]), np.array([[-0.0, -0.0]])):
            assert signed_root_normalize(x).tobytes() == sign_root_normalize(x).tobytes()

    def test_input_is_not_written(self):
        m = np.array([[-4.0, 9.0], [-0.0, 1.0]])
        signed_root_normalize(m)
        assert m.tobytes() == np.array([[-4.0, 9.0], [-0.0, 1.0]]).tobytes()


class TestSliceMeans:
    """Against one ``mean`` per slice, byte for byte."""

    @staticmethod
    def _check(m, stops):
        starts = np.concatenate(([0], stops[:-1]))
        want = np.array([m[a:b].mean(axis=0) for a, b in zip(starts, stops)])
        assert slice_means(m, starts, stops).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_equals_one_mean_per_slice(self, scale):
        rng = np.random.default_rng(5)
        n = 50
        m = rng.normal(size=(n, 6)) * scale
        m[rng.random(n) < 0.2] = -0.0
        m[rng.random(m.shape) < 0.1] = -0.0
        every = np.arange(1, n + 1)
        mixed = np.array([1, 2, 5, 6, 7, 15, 16, 30, 31, 49, 50])
        for stops in (every, np.array([n]), mixed):
            self._check(m, stops)

    def test_one_row_slices_of_negative_zero_give_zero(self):
        m = np.full((3, 2), -0.0)
        assert not np.signbit(slice_means(m, np.arange(3), np.arange(1, 4))).any()
        self._check(m, np.array([1, 3]))


class TestFuse:
    def test_empty_semantic_block(self):
        c = np.array([[3.0, 4.0], [1.0, 0.0]])
        out = fuse(c, np.zeros((2, 0)), blend=0.3)
        np.testing.assert_allclose(out, 0.7 * c / np.array([[5.0], [1.0]]))

    def test_blend_zero_zeroes_semantic(self):
        c = np.array([[1.0, 0.0]])
        s = np.array([[0.5, 0.5]])
        out = fuse(c, s, blend=0.0)
        np.testing.assert_allclose(out[:, :2], c)
        np.testing.assert_array_equal(out[:, 2:], np.zeros((1, 2)))

    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            fuse(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_row_norm_when_both_blocks_nonzero(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(5, 6))
        s = rng.uniform(0.1, 1.0, size=(5, 3))
        for blend in (0.2, 0.5, 0.9):
            out = fuse(c, s, blend)
            expected = np.sqrt((1 - blend) ** 2 + blend ** 2)
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), expected)

    def test_cosine_invariant_to_contextual_rescale(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=(4, 5))
        s = rng.uniform(0.0, 1.0, size=(4, 3))
        a = fuse(c, s)
        b = fuse(17.5 * c, s)
        def cosines(m):
            unit = m / np.linalg.norm(m, axis=1, keepdims=True)
            return unit @ unit.T
        np.testing.assert_allclose(cosines(a), cosines(b), atol=1e-12)


class TestUnitRows:
    def test_bitwise_equal_to_whole_matrix_norm_form(self):
        rng = np.random.default_rng(37)
        for n in (1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1):
            for d in (1, 7, 9, 130, 316):
                m = rng.normal(size=(n, d))
                m[rng.random(n) < 0.2] = 0.0
                m[rng.random(n) < 0.2] = -0.0
                m[rng.random(n) < 0.2] *= 1e150
                m[rng.random(n) < 0.2] *= 1e-150
                # a column slice is how the spectral embedding calls it
                for rows in (m, m[:, : max(1, d // 2)]):
                    got = unit_rows(rows)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == norm_unit_rows(rows).tobytes(), (n, d)

    def test_any_layout_gives_the_c_ordered_result(self):
        m = np.random.default_rng(41).normal(size=(BLOCK_ROWS + 1, 16))
        assert unit_rows(np.asfortranarray(m)).tobytes() == unit_rows(m).tobytes()

    def test_integer_rows_become_unit_floats(self):
        got = unit_rows(np.array([[3, 4], [0, 0], [0, -2]]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [[0.6, 0.8], [0.0, 0.0], [0.0, -1.0]])

    def test_input_is_not_written(self):
        m = np.random.default_rng(43).normal(size=(5, 3))
        before = m.copy()
        unit_rows(m)
        np.testing.assert_array_equal(m, before)
