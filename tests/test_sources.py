"""Pair generation, correlation shifting, and the CLT lift."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri  # an oracle: the package has its own

from conftest import word_normals
from corrcomm import (
    CorrelationModel,
    PairBatch,
    binary_to_gaussian,
    expected_max_normal,
    gen_pairs,
    shift_correlation,
    shift_params,
    var_max_normal,
)
from corrcomm.rng import substream
from corrcomm.sources import _draw_pairs, _draw_stack, _normals

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
        # one raw word a pair: bit 0 is x's sign, and the uniform numpy's
        # random() makes of the word decides agreement
        words = rng.bit_generator.random_raw(n)
        x = np.where(words & 1, 1.0, -1.0)
        agree = (words >> 11) * 2.0**-53 < (1.0 + rho) / 2.0
        y = np.where(agree, x, -x)
    else:
        # two raw words a pair, x's n then the noise z's n, each the normal
        # quantile at the middle of its high 53 bits' cell
        x, z = word_normals(rng.bit_generator.random_raw(2 * n)).reshape(2, n)
        y = rho * x + math.sqrt(1.0 - rho**2) * z
    for got, want in ((batch.x, x), (batch.y, y)):
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got, want)
    # the batch passes the checks it skipped
    rebuilt = PairBatch(x=batch.x, y=batch.y, family=family)
    assert np.array_equal(rebuilt.x, x) and np.array_equal(rebuilt.y, y)
    assert batch.family == family and len(batch) == n


def _words(values):
    """A stand-in generator whose raw words are values, in order."""
    words = np.array(values, dtype=np.uint64)
    return SimpleNamespace(bit_generator=SimpleNamespace(
        random_raw=lambda size: words.reshape(size)))


@pytest.mark.parametrize("rho", [-1.0, -0.3, 0.0, 0.6, 1.0])
def test_binary_stack_is_one_raw_word_a_pair(rho):
    # on twin generators: x's sign is bit 0 of each word, and the pair agrees
    # exactly where random() on the same word lies below (1 + rho) / 2
    model = CorrelationModel("binary", rho)
    rows, n = 4, 25_000
    x, y = _draw_stack(model, n, rows, substream(SEED, "twin"))
    assert x.dtype == y.dtype == np.int8 and x.shape == y.shape == (rows, n)
    words = substream(SEED, "twin").bit_generator.random_raw((rows, n))
    assert np.array_equal(x, np.where(words & 1, 1, -1))
    agree = substream(SEED, "twin").random((rows, n)) < (1.0 + rho) / 2.0
    assert np.array_equal(x == y, agree)
    if abs(rho) == 1.0:
        assert np.array_equal(y, rho * x)


@pytest.mark.parametrize("rho", [-1.0, -0.3, 0.0, 1.0])
def test_binary_agreement_threshold_is_random_below_p(rho):
    # words at and beside the threshold, and at both ends of the range:
    # agreement is random() < p to the last word
    p = (1.0 + rho) / 2.0
    top = math.ceil(p * 2.0**53)  # random() < p iff (w >> 11) < top
    mantissas = [0, 1, top - 1, top, top + 1, 2**53 - 1]
    values = [(m << 11) | low for m in mantissas if 0 <= m < 2**53
              for low in (0, 1, 2**11 - 2, 2**11 - 1)]
    x, y = _draw_stack(CorrelationModel("binary", rho), len(values), 1, _words(values))
    words = np.array(values, dtype=np.uint64)
    assert np.array_equal(x[0], np.where(words & 1, 1, -1))
    assert np.array_equal(x[0] == y[0], (words >> 11) * 2.0**-53 < p)


@pytest.mark.parametrize("rows", [1, 5, 256])
def test_binary_stack_is_consecutive_one_row_draws(rows):
    # a stack of r rows is r consecutive batches of gen_pairs' recipe, so a
    # literal trial's batch does not depend on the stack it sits in
    model = CorrelationModel("binary", 0.6)
    x, y = _draw_stack(model, 64, rows, substream(SEED, "stack"))
    rng = substream(SEED, "stack")
    for t in range(rows):
        batch = _draw_pairs(model, 64, rng)
        assert batch.x.tobytes() == x[t].astype(float).tobytes()
        assert batch.y.tobytes() == y[t].astype(float).tobytes()


def test_gaussian_stack_is_consecutive_one_row_draws():
    # read indexes the stack as numpy indexes a rows x n array, and gives
    # the floats of the consecutive batches gen_pairs' recipe draws
    model = CorrelationModel("gaussian", 0.6)
    rows, n = 7, 64
    keys, read = _draw_stack(model, n, rows, substream(SEED, "stack"))
    assert keys.dtype == np.uint64 and keys.shape == (rows, n)
    rng = substream(SEED, "stack")
    batches = [_draw_pairs(model, n, rng) for _ in range(rows)]
    x = np.array([batch.x for batch in batches])
    y = np.array([batch.y for batch in batches])
    assert np.array_equal(keys.argmax(axis=1), x.argmax(axis=1))
    at = (np.array([[6], [0]]), np.array([[3, 63, 0], [5, 5, 1]]))
    for index in ((slice(None), slice(None)), (2, slice(10, 20)), at):
        got_x, got_y = read(*index)
        assert got_x.tobytes() == x[index].tobytes()
        assert got_y.tobytes() == y[index].tobytes()


@pytest.mark.parametrize("rho", [-0.3, 0.6])
def test_binary_pairs_follow_their_law(rho):
    # agreement rate and x's mean on a million pairs, within 4 standard errors
    n = 10**6
    batch = gen_pairs(CorrelationModel("binary", rho), n, SEED)
    p = (1.0 + rho) / 2.0
    assert abs(np.mean(batch.x == batch.y) - p) < 4 * math.sqrt(p * (1 - p) / n)
    assert abs(batch.x.mean()) < 4 / math.sqrt(n)


# ----------------------------------------------------------------------
# gaussian words: the word-to-normal map and its law
# ----------------------------------------------------------------------

def high_bits(words):
    return np.asarray(words, dtype=np.uint64) >> 11


def test_word_normals_are_finite_at_the_extreme_words():
    # the two ends of the range, the top bit's edge, and the low 11 bits
    # that the map drops
    words = [0, 2**11 - 1, 2**63 - 1, 2**63, 2**64 - 1]
    x = _normals(high_bits(words))
    assert np.isfinite(x).all() and np.abs(x).max() <= 8.3
    assert x[0] == x[1] == -x[4] < -8.29  # Phi^-1(2^-54)
    assert x[2] == -x[3] and -1e-15 < x[2] < 0.0 < x[3] < 1e-15


def test_word_normals_are_odd_in_the_complement_and_signed_by_the_top_bit():
    words = substream(SEED, "odd").bit_generator.random_raw(200_000)
    x = _normals(high_bits(words))
    assert _normals(high_bits(~words)).tobytes() == (-x).tobytes()
    assert np.array_equal(x > 0, words >> 63 == 1) and not np.any(x == 0)


def test_word_normals_rise_with_the_high_bits():
    high = np.sort(high_bits(substream(SEED, "sorted").bit_generator.random_raw(200_000)))
    assert np.all(np.diff(_normals(high)) >= 0)


def test_word_normals_are_the_quantiles_at_the_cell_midpoints():
    # scipy's ndtri on the exact mirrored midpoint, signed by the top bit
    high = high_bits(substream(SEED, "midpoints").bit_generator.random_raw(200_000))
    high[:4] = [0, 2**52 - 1, 2**52, 2**53 - 1]
    mirror = np.minimum(high, 2**53 - 1 - high)
    want = scipy_ndtri((mirror + 0.5) * 2.0**-53)
    want = np.where(high >= 2**52, -want, want)
    x = _normals(high)
    assert np.all(np.abs(x - want) <= 2e-15 * np.abs(want))


def test_gaussian_pairs_follow_their_law():
    # a million pairs at 4 standard errors: the moments and the correlation,
    # and the maxima of 976 pools of 1024 x's, which reach the upper tail
    n, rho, pool = 10**6, 0.6, 1024
    batch = gen_pairs(CorrelationModel("gaussian", rho), n, SEED)
    for column in (batch.x, batch.y):
        assert abs(column.mean()) < 4 / math.sqrt(n)
        assert abs(column.var() - 1.0) < 4 * math.sqrt(2.0 / n)
    assert abs(batch.empirical_correlation() - rho) < 4 * (1 - rho**2) / math.sqrt(n)
    maxima = batch.x[: n // pool * pool].reshape(-1, pool).max(axis=1)
    mean, var = expected_max_normal(pool), var_max_normal(pool)
    assert abs(maxima.mean() - mean) < 4 * math.sqrt(var / maxima.size)
    fourth = np.mean((maxima - mean) ** 4)
    assert abs(np.mean((maxima - mean) ** 2) - var) < 4 * math.sqrt(
        (fourth - var**2) / maxima.size)


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
