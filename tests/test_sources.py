"""Pair generation, correlation shifting, and the CLT lift."""

import math
import re

import numpy as np
import pytest

from corrcomm import (
    CorrelationModel,
    PairBatch,
    binary_to_gaussian,
    gen_pairs,
    shift_correlation,
    shift_params,
)
from corrcomm.rng import substream

SEED = 20240817


def test_model_validation():
    with pytest.raises(ValueError):
        CorrelationModel("poisson", 0.1)
    with pytest.raises(ValueError):
        CorrelationModel("binary", 1.2)
    for rho in (True, "0.5"):  # a bool or a string is not a correlation
        with pytest.raises(ValueError, match="correlation must be a finite number"):
            CorrelationModel("binary", rho)


def test_batch_validation():
    with pytest.raises(ValueError):
        PairBatch(x=np.zeros(3), y=np.zeros(4), family="binary")
    with pytest.raises(ValueError):
        PairBatch(x=np.zeros(3), y=np.zeros(3), family="cauchy")
    assert len(PairBatch(x=np.zeros(5), y=np.zeros(5), family="gaussian")) == 5
    # batches built by callers are checked in full; gen_pairs' are not
    with pytest.raises(ValueError, match="\\+-1 values"):
        PairBatch(x=np.array([1.0, 0.5]), y=np.ones(2), family="binary")
    with pytest.raises(ValueError, match="\\+-1 values"):
        PairBatch(x=np.ones(2), y=np.array([-1.0, 0.5]), family="binary")
    with pytest.raises(ValueError, match="1-D"):
        PairBatch(x=np.ones((2, 1)), y=np.ones((2, 1)), family="binary")
    with pytest.raises(ValueError, match="at least one pair"):
        PairBatch(x=np.ones(0), y=np.ones(0), family="gaussian")


@pytest.mark.parametrize(
    "x, y",
    [([np.nan, 1.0], [0.5, np.inf]), ([np.inf, 1.0], [0.5, 0.2]),
     ([0.1, 1.0], [-np.inf, 0.2]), ([0.1, 1.0], [0.5, np.nan])],
)
def test_batch_rejects_non_finite_samples(x, y):
    # a nan pool once decoded to rho_hat 0.886 (nan's argmax is 0), an inf to 1.0
    with pytest.raises(ValueError, match="finite"):
        PairBatch(x=np.array(x), y=np.array(y), family="gaussian")


def test_gen_pairs_binary_values_and_agreement():
    n = 100_000
    rho = 0.4
    batch = gen_pairs(CorrelationModel("binary", rho), n, SEED)
    assert set(np.unique(batch.x)) <= {-1.0, 1.0}
    assert set(np.unique(batch.y)) <= {-1.0, 1.0}
    # product mean estimates rho with sd sqrt((1 - rho^2)/n)
    sd = math.sqrt((1 - rho * rho) / n)
    assert abs(batch.empirical_correlation() - rho) < 3 * sd
    assert abs(batch.x.mean()) < 3 / math.sqrt(n)


def test_gen_pairs_gaussian_moments():
    n = 100_000
    rho = -0.6
    batch = gen_pairs(CorrelationModel("gaussian", rho), n, SEED)
    assert abs(batch.x.mean()) < 3 / math.sqrt(n)
    assert abs(batch.x.var() - 1.0) < 3 * math.sqrt(2.0 / n)
    assert abs(batch.y.var() - 1.0) < 3 * math.sqrt(2.0 / n)
    sd = (1 - rho * rho) / math.sqrt(n)  # Pearson sd, first order
    assert abs(batch.empirical_correlation() - rho) < 3 * sd


@pytest.mark.parametrize("family", ["binary", "gaussian"])
@pytest.mark.parametrize(
    "n, seed, rho", [(1, 0, 0.6), (68, 3, -0.3), (1025, SEED, 1.0)]
)
def test_gen_pairs_stream_is_pinned(family, n, seed, rho):
    batch = gen_pairs(CorrelationModel(family, rho), n, seed)
    # the recipe the stream was defined by, written out
    rng = substream(seed, f"gen_pairs/{family}")
    if family == "binary":
        x = rng.integers(0, 2, size=n) * 2.0 - 1.0
        agree = rng.random(n) < (1.0 + rho) / 2.0
        y = np.where(agree, x, -x)
    else:
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        y = rho * x + math.sqrt(1.0 - rho**2) * z
    for got, want in ((batch.x, x), (batch.y, y)):
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got, want)
    # the batch passes the checks it skipped
    rebuilt = PairBatch(x=batch.x, y=batch.y, family=family)
    assert np.array_equal(rebuilt.x, x) and np.array_equal(rebuilt.y, y)
    assert batch.family == family and len(batch) == n


def test_gen_pairs_rejects_empty():
    # a count that is not an integer fails at the boundary, not inside numpy
    for n in (0, 2.5, True, None):
        with pytest.raises(ValueError, match=re.escape(
                f"sample count must be an integer >= 1, got {n!r}")):
            gen_pairs(CorrelationModel("binary", 0.0), n, SEED)


def test_empirical_correlation_by_family():
    x = np.array([1.0, 1.0, -1.0, -1.0])
    y = np.array([1.0, -1.0, -1.0, -1.0])
    binary = PairBatch(x=x, y=y, family="binary")
    assert binary.empirical_correlation() == pytest.approx(0.5, abs=0)
    # gaussian batches use the centered, scale-free coefficient
    gx = np.array([0.1, 0.9, 0.4, 0.6])
    gauss = PairBatch(x=gx, y=2.0 * gx + 1.0, family="gaussian")
    assert gauss.empirical_correlation() == pytest.approx(1.0, abs=1e-12)
    short = PairBatch(x=np.array([1.0]), y=np.array([1.0]), family="gaussian")
    with pytest.raises(ValueError):
        short.empirical_correlation()


# ----------------------------------------------------------------------
# correlation shift
# ----------------------------------------------------------------------

def test_shift_params_solves_the_affine_map():
    for family in ("binary", "gaussian"):
        params = shift_params(family, 0.25, 0.5)
        assert params.s == 1.0
        assert params.input_rho == pytest.approx(1.0 / 3.0, abs=1e-15)
        weight = params.alpha if family == "binary" else params.alpha**2
        # the per-pair map rho -> s*weight + (1-weight)*rho sends input_rho
        # to rho1 and 0 to rho0
        assert weight * params.s + (1 - weight) * params.input_rho == pytest.approx(
            0.5, abs=1e-15
        )
        assert weight * params.s == pytest.approx(0.25, abs=1e-15)


def test_shift_params_feasibility_window():
    # target 0.5 admits bases in [-0.25, 0.75] only
    shift_params("binary", -0.25, 0.5)
    shift_params("binary", 0.75, 0.5)
    with pytest.raises(ValueError):
        shift_params("binary", -0.3, 0.5)
    with pytest.raises(ValueError):
        shift_params("binary", 0.8, 0.5)
    with pytest.raises(ValueError):
        shift_params("exponential", 0.0, 0.5)


@pytest.mark.parametrize(
    "rho0, rho1",
    [
        pytest.param("0.25", 0.5, id="str-base"),
        pytest.param(True, 0.5, id="bool-base"),
        pytest.param(math.nan, 0.5, id="nan-base"),
        pytest.param(0.25, "0.5", id="str-target"),
        pytest.param(0.25, True, id="bool-target"),
        pytest.param(0.25, 1.5, id="target-past-1"),
    ],
)
def test_shift_params_checks_both_correlations(rho0, rho1):
    # a string base once raised abs()'s TypeError, and True passed as 1.0
    with pytest.raises(ValueError, match="correlation must"):
        shift_params("binary", rho0, rho1)


def test_shift_params_negative_base_uses_negative_sign():
    params = shift_params("gaussian", -0.25, 0.1)
    assert params.s == -1.0
    assert params.alpha == pytest.approx(0.5, abs=1e-15)


def test_shift_correlation_family_mismatch():
    batch = gen_pairs(CorrelationModel("binary", 0.0), 16, SEED)
    params = shift_params("gaussian", 0.25, 0.5)
    with pytest.raises(ValueError):
        shift_correlation(batch, params, SEED)


@pytest.mark.parametrize("family", ["binary", "gaussian"])
def test_shift_correlation_moments(family):
    # marginals stay standard and the correlation lands on the target
    n = 1_000_000
    params = shift_params(family, 0.25, 0.5)
    base = gen_pairs(CorrelationModel(family, params.input_rho), n, SEED)
    shifted = shift_correlation(base, params, SEED)
    assert shifted.family == family
    assert abs(shifted.x.mean()) < 3 / math.sqrt(n)
    assert abs(shifted.y.mean()) < 3 / math.sqrt(n)
    if family == "binary":
        assert set(np.unique(shifted.x)) <= {-1.0, 1.0}
        sd = math.sqrt((1 - 0.5**2) / n)
    else:
        assert abs(shifted.x.var() - 1.0) < 3 * math.sqrt(2.0 / n)
        assert abs(shifted.y.var() - 1.0) < 3 * math.sqrt(2.0 / n)
        sd = (1 - 0.5**2) / math.sqrt(n)
    assert abs(shifted.empirical_correlation() - 0.5) < 3 * sd


def test_shift_correlation_base_point():
    # an independent input batch comes out at correlation rho0
    n = 1_000_000
    params = shift_params("binary", 0.25, 0.5)
    base = gen_pairs(CorrelationModel("binary", 0.0), n, SEED)
    shifted = shift_correlation(base, params, SEED)
    sd = math.sqrt((1 - 0.25**2) / n)
    assert abs(shifted.empirical_correlation() - 0.25) < 3 * sd


def test_shift_correlation_deterministic():
    params = shift_params("binary", 0.25, 0.5)
    base = gen_pairs(CorrelationModel("binary", params.input_rho), 256, SEED)
    a = shift_correlation(base, params, SEED)
    b = shift_correlation(base, params, SEED)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


# ----------------------------------------------------------------------
# CLT lift
# ----------------------------------------------------------------------

def test_lift_requires_binary_and_divisibility():
    gauss = gen_pairs(CorrelationModel("gaussian", 0.0), 64, SEED)
    with pytest.raises(ValueError):
        binary_to_gaussian(gauss, 8)
    binary = gen_pairs(CorrelationModel("binary", 0.0), 65, SEED)
    with pytest.raises(ValueError):
        binary_to_gaussian(binary, 8)
    even = gen_pairs(CorrelationModel("binary", 0.0), 64, SEED)
    for t in (0, 2.0, 2.5, True, None):
        with pytest.raises(ValueError, match=re.escape(
                f"group size must be an integer >= 1, got {t!r}")):
            binary_to_gaussian(even, t)


def test_lift_moments_and_correlation():
    t = 64
    groups = 16000
    rho = 0.3
    batch = gen_pairs(CorrelationModel("binary", rho), t * groups, SEED)
    lifted = binary_to_gaussian(batch, t, seed=SEED)
    assert lifted.family == "gaussian"
    assert len(lifted) == groups
    a_t = t ** (-0.25)
    var = 1.0 + a_t * a_t
    assert abs(lifted.x.mean()) < 3 * math.sqrt(var / groups)
    assert abs(lifted.x.var() - var) < 3 * var * math.sqrt(2.0 / groups)
    target = rho / var
    sd = (1 - target * target) / math.sqrt(groups)
    assert abs(lifted.empirical_correlation() - target) < 3 * sd


def test_lift_custom_smoothing():
    batch = gen_pairs(CorrelationModel("binary", 0.0), 128, SEED)
    lifted = binary_to_gaussian(batch, 16, a_t=0.0, seed=SEED)
    # with no smoothing the outputs live on the lattice of scaled sums
    np.testing.assert_allclose(
        lifted.x * math.sqrt(16), np.round(lifted.x * math.sqrt(16)), atol=1e-9
    )
    with pytest.raises(ValueError):
        binary_to_gaussian(batch, 16, a_t=-0.5)
