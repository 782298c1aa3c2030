import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from photoseg.datamodel import ValidationError
from photoseg.fusion import BLOCK_ROWS, fuse, signed_root_normalize, unit_rows

from oracles import norm_unit_rows

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
