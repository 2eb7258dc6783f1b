"""The numpy normal kernels against scipy.special, the tests' oracle.

The package computes Phi, log Phi and Phi^-1 without scipy; these tests
hold them to scipy's values, and erfcx, the one piece that is
approximated, also to 40-digit values where mpmath is installed.
"""

import math

import numpy as np
import pytest
import scipy.special as sc

from corrcomm._normal import _erfcx, log_ndtr, ndtr, ndtri

# Phi(x) is a normal float from about x = -37.5 up
X_GRID = np.concatenate([
    np.linspace(-37.5, 38.5, 152_001),
    np.random.default_rng(0).uniform(-37.5, 38.5, 50_000),
])


def test_erfcx_matches_scipy():
    s = np.concatenate([np.linspace(0.0, 60.0, 120_001),
                        np.geomspace(60.0, 1e300, 2000)])
    np.testing.assert_allclose(_erfcx(s), sc.erfcx(s), rtol=1e-15, atol=0)


def test_erfcx_matches_forty_digit_values():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    s = np.concatenate([np.random.default_rng(1).uniform(0.0, 8.0, 300),
                        np.geomspace(8.0, 1e6, 60), [0.0, 2.0, 50.0]])
    exact = [mpmath.exp(mpmath.mpf(v) ** 2) * mpmath.erfc(mpmath.mpf(v)) for v in s]
    rel = [abs(float((mpmath.mpf(ours) - e) / e)) for ours, e in zip(_erfcx(s), exact)]
    assert max(rel) <= 3e-16


@pytest.mark.parametrize("ours, theirs", [(ndtr, sc.ndtr), (log_ndtr, sc.log_ndtr)])
def test_ndtr_and_log_ndtr_match_scipy(ours, theirs):
    # Both take exp(-t * t) with the same rounded t, so they share its
    # t^2 * 2^-53 relative error in the tails. What is left is erfcx,
    # numpy's exp against the C library's (an ulp apart), and scipy's own
    # 1 - erf near |x| = 1.2, off by up to 1.4e-15 (ours: 5e-16, by mpmath)
    ref = theirs(X_GRID)
    normal = np.abs(ref) > np.finfo(float).tiny
    np.testing.assert_allclose(ours(X_GRID)[normal], ref[normal], rtol=2e-15, atol=0)


def test_ndtri_matches_scipy():
    rng = np.random.default_rng(2)
    p = np.concatenate([
        rng.random(100_000),
        10.0 ** -rng.uniform(0.0, 300.0, 50_000),
        1.0 - 10.0 ** -rng.uniform(0.3, 16.0, 50_000),
        [1e-300, 1.0 - 1e-16, 0.075, 0.925, 0.5],
    ])
    np.testing.assert_allclose(ndtri(p), sc.ndtri(p), rtol=2e-15, atol=0)


def test_kernels_at_their_limits():
    with np.errstate(divide="raise", over="raise", invalid="raise"):  # no branch warns
        assert list(ndtr([-np.inf, -40.0, 0.0, 40.0, np.inf, 1e300])) == [
            0.0, 0.0, 0.5, 1.0, 1.0, 1.0
        ]
        assert log_ndtr(0.0) == math.log(0.5)
        assert log_ndtr(np.inf) == 0.0
        assert log_ndtr(-np.inf) == -np.inf
        assert log_ndtr(-1e10) == pytest.approx(sc.log_ndtr(-1e10), rel=1e-15)
        assert list(ndtri([0.0, 0.5, 1.0])) == [-np.inf, 0.0, np.inf]
    for f in (ndtr, log_ndtr, ndtri):
        assert np.isnan(f(np.nan))
    assert np.isnan(ndtri([-0.1, 1.1])).all()


def test_kernels_keep_shapes_and_return_scalars_for_scalars():
    for f in (ndtr, log_ndtr, ndtri):
        assert isinstance(f(0.3), np.float64)
        assert f(np.full((2, 3), 0.3)).shape == (2, 3)
        assert f(np.array([])).shape == (0,)


def test_ndtri_inverts_ndtr():
    x = np.linspace(-37.0, 0.0, 10_001)  # above 0, Phi(x) rounds toward 1
    np.testing.assert_allclose(ndtri(ndtr(x)), x, rtol=1e-14, atol=1e-15)
