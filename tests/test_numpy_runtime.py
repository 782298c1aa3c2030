"""The package runs on numpy alone.

Two private helpers stand in for the scipy calls the package once made,
``scipy.special.log_softmax`` and ``scipy.ndimage.convolve1d``. Each
follows scipy's own order of floating-point operations, an implementation
detail of scipy, so the tests below, which hold them to scipy bit for bit,
are the contract. scipy is imported here and nowhere in the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import convolve1d
from scipy.special import log_softmax

from photoseg.graphcut import _log_softmax
from photoseg.semantic import _symmetric_smooth, smooth_temporal

ROOT = Path(__file__).resolve().parent.parent


def gaussian_kernel(bandwidth):
    """The kernel ``smooth_temporal`` builds."""
    radius = int(np.ceil(3.0 * bandwidth))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / bandwidth) ** 2)
    return kernel / kernel.sum()


def scipy_smooth(values, kernel):
    return convolve1d(values, kernel, axis=0, mode="constant", cval=0.0)


def scipy_smooth_temporal(matrix, bandwidth):
    """``smooth_temporal`` as it read when it called scipy."""
    kernel = gaussian_kernel(bandwidth)
    smoothed = scipy_smooth(matrix, kernel)
    smoothed /= scipy_smooth(np.ones(matrix.shape[0]), kernel)[:, None]
    return np.clip(smoothed, 0.0, 1.0)


class TestSymmetricSmooth:
    @pytest.mark.parametrize("bandwidth", [0.2, 0.5, 1.0, 1.5, 3.0, 7.3, 20.0])
    def test_gaussian_kernels_match_scipy(self, bandwidth):
        rng = np.random.default_rng(int(bandwidth * 10))
        kernel = gaussian_kernel(bandwidth)
        # n = 1, n shorter than the kernel, n around it, and n well past it
        for n in (1, 2, kernel.size - 1, kernel.size, kernel.size + 1, 300):
            for matrix in (rng.uniform(0, 1, (n, 7)), rng.normal(0, 1e3, (n, 3))):
                assert np.array_equal(_symmetric_smooth(matrix, kernel),
                                      scipy_smooth(matrix, kernel))
            assert np.array_equal(_symmetric_smooth(np.ones(n), kernel),
                                  scipy_smooth(np.ones(n), kernel))

    def test_random_symmetric_kernels_match_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            half = rng.uniform(0, 1, int(rng.integers(1, 15)))
            kernel = np.concatenate([half[:0:-1], half])
            values = rng.normal(size=(int(rng.integers(1, 60)), int(rng.integers(1, 5))))
            assert np.array_equal(_symmetric_smooth(values, kernel),
                                  scipy_smooth(values, kernel))

    @pytest.mark.parametrize("shape", [(6, 0), (0, 4), (0, 0)])
    def test_empty_matrices_match_scipy(self, shape):
        kernel = gaussian_kernel(2.0)
        got = _symmetric_smooth(np.zeros(shape), kernel)
        assert got.shape == shape
        assert np.array_equal(got, scipy_smooth(np.zeros(shape), kernel))

    def test_smooth_temporal_matches_its_scipy_form(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n, c = int(rng.integers(1, 120)), int(rng.integers(0, 12))
            bandwidth = float(rng.uniform(0.1, 10.0))
            matrix = rng.uniform(0, 1, (n, c))
            assert np.array_equal(smooth_temporal(matrix, bandwidth),
                                  scipy_smooth_temporal(matrix, bandwidth))


class TestLogSoftmax:
    def test_random_logits_match_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            shape = (int(rng.integers(1, 50)), int(rng.integers(1, 40)))
            logits = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(_log_softmax(logits), log_softmax(logits, axis=1))

    def test_large_logits_match_scipy(self):
        rng = np.random.default_rng(3)
        logits = rng.choice([-1e5, 1e5], size=(40, 6)) + rng.normal(size=(40, 6))
        got = _log_softmax(logits)
        assert np.isfinite(got).all()
        assert np.array_equal(got, log_softmax(logits, axis=1))

    def test_infinite_rows_match_scipy(self):
        logits = np.array([
            [np.inf, 1.0, 2.0],
            [-np.inf, 0.5, 3.0],
            [np.inf, -np.inf, 0.0],
            [-np.inf, -np.inf, -np.inf],
            [1.0, 2.0, 3.0],
        ])
        # inf - inf is NaN on both sides; scipy warns about it as well
        with np.errstate(invalid="ignore"):
            got, want = _log_softmax(logits), log_softmax(logits, axis=1)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[3]).all()

    def test_zero_rows(self):
        logits = np.zeros((0, 5))
        assert np.array_equal(_log_softmax(logits), log_softmax(logits, axis=1))


def test_importing_the_package_loads_no_scipy():
    """Nor does ``import photoseg`` load the command line or argparse: the
    library import is the start-up cost every caller pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, photoseg; "
            "print(sorted(m for m in ('photoseg.cli', 'argparse') if m in sys.modules)); "
            "import photoseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]
