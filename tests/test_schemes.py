"""Protocol runners, their vectorized twins, and the risk harness.

The batch runners execute each protocol literally on sampled pairs; the
fast samplers draw the same sufficient statistics directly. The two forms
are compared at 3-sigma throughout, so a distributional mismatch in either
one fails loudly.
"""

import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr  # oracles: the package has its own

from corrcomm import (
    CorrelationModel,
    EstimateResult,
    Message,
    PairBatch,
    RiskReport,
    SchemeConfig,
    Transcript,
    block_layout,
    check_preconditions,
    default_phase1_bits,
    estimate_risk,
    expected_max_normal,
    gen_pairs,
    max_scheme_mse_exact,
    naive_mse_exact,
    run_binary_block,
    run_local_scheme,
    run_max_scheme,
    run_naive,
    run_two_way,
    substream,
    var_max_normal,
)
import corrcomm.schemes
from corrcomm.rng import _tag_words
from corrcomm.schemes import (
    _STACK,
    MAX_POINTER_BITS,
    SCHEMES,
    _binom_pmf,
    _local_prefix_bits,
    _local_threshold,
    _NORM_PDF_LOGC,
    _max_normal_moments,
    _max_normal_panels,
    _RULE_NODES,
    _RULE_WEIGHTS,
    _sample_max_normal,
    _sample_tail_normal,
)
from corrcomm.sources import _draw_pairs

SEED = 411


def gaussian_batch(x, y):
    return PairBatch(x=np.asarray(x, float), y=np.asarray(y, float), family="gaussian")


def binary_batch(x, y):
    return PairBatch(x=np.asarray(x, float), y=np.asarray(y, float), family="binary")


# ----------------------------------------------------------------------
# quadrature oracles
# ----------------------------------------------------------------------

def test_expected_max_normal_small_n():
    assert expected_max_normal(1) == 0.0
    assert var_max_normal(1) == 1.0


@pytest.mark.parametrize(
    "n, mean, second",
    [
        # E[max(X1, X2)] = 1/sqrt(pi) and E[max^2] = 1 (max^2 + min^2 = X1^2 + X2^2)
        (2, 1.0 / math.sqrt(math.pi), 1.0),
        (3, 1.5 / math.sqrt(math.pi), 1.0 + math.sqrt(3.0) / (2.0 * math.pi)),
    ],
)
def test_max_normal_moments_match_closed_forms(n, mean, second):
    assert expected_max_normal(n) == pytest.approx(mean, rel=1e-15, abs=0)
    assert var_max_normal(n) == pytest.approx(second - mean * mean, rel=1e-15, abs=0)


@pytest.mark.parametrize("bits", [1, 2, 5, 8, 11, 16, 20, 26])
def test_max_normal_moments_match_adaptive_quadrature(bits):
    from scipy.integrate import quad  # the package itself must not import it

    n = 2**bits
    log_n = math.log(n)
    peak = math.sqrt(2.0 * log_n)

    def raw(power):
        def integrand(x):
            return x**power * math.exp(
                log_n + (-x**2 / 2.0 - _NORM_PDF_LOGC) + (n - 1) * log_ndtr(x)
            )

        return quad(
            integrand, -12.0, peak + 12.0, points=[peak],
            limit=400, epsabs=1e-11, epsrel=1e-11,
        )[0]

    mean, var = _max_normal_moments(n)
    assert mean == pytest.approx(raw(1), rel=1e-13, abs=0)
    assert var + mean * mean == pytest.approx(raw(2), rel=1e-13, abs=0)


def refined_moments(n, panels_per_unit=4.0, order=30):
    """Mean and central variance from a rule finer in panels and nodes."""
    log_n = math.log(n)
    peak = math.sqrt(2.0 * log_n)
    lo, hi = -12.0, peak + 12.0
    panels = math.ceil((hi - lo) * peak * panels_per_unit)
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    nodes, weights = np.polynomial.legendre.leggauss(order)
    x = (edges[:-1, None] + half) + half * nodes
    mass = half * weights * np.exp(
        log_n + (-x**2 / 2.0 - _NORM_PDF_LOGC) + (n - 1) * log_ndtr(x)
    )
    mean = (mass * x).sum()
    return mean, (mass * (x - mean) ** 2).sum()


@pytest.mark.parametrize("bits", [64, 256, 960])
def test_max_normal_variance_is_central(bits):
    # E[M^2] - E[M]^2 cancels: it lost 8e-10 of the variance at 2^256
    mean, var = refined_moments(2**bits)
    assert expected_max_normal(2**bits) == pytest.approx(mean, rel=1e-12, abs=0)
    assert var_max_normal(2**bits) == pytest.approx(var, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "bits, dropped, panels",
    [(1, 0, 30), (4, 6, 63), (8, 34, 92), (12, 52, 115), (20, 80, 155), (64, 191, 315),
     (960, 1757, 2207)],
)
def test_max_normal_panels_drop_only_underflowed_ones(bits, dropped, panels):
    n = 2**bits
    mids, half = _max_normal_panels(n)
    assert len(mids) == panels - dropped
    assert mids[0] - half * (2 * dropped + 1) == pytest.approx(-12.0, abs=1e-12)

    def log_density(x):
        return math.log(n) + (-x**2 / 2.0 - _NORM_PDF_LOGC) + (n - 1) * log_ndtr(x)

    # the dropped panels' right edges, and so all their nodes, underflow;
    # the first kept panel's right edge does not (the Mills-ratio bounds
    # are tight enough to keep no more than one panel too many)
    edges = mids[0] - half - 2 * half * np.arange(dropped)
    assert np.all(np.exp(log_density(edges)) == 0.0)
    assert log_density(mids[:2] + half).max() >= -746.0


def test_legendre_rules_are_numpys():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    assert np.array_equal(_RULE_NODES[:20], nodes)
    assert np.array_equal(_RULE_WEIGHTS[:20], weights)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.array_equal(_RULE_NODES[20:], nodes)
    assert np.array_equal(_RULE_WEIGHTS[20:], weights)


def test_max_normal_trends():
    means = [expected_max_normal(2**k) for k in (4, 8, 12, 16)]
    assert all(b > a for a, b in zip(means, means[1:]))
    variances = [var_max_normal(2**k) for k in (4, 8, 12, 16)]
    assert all(b < a for a, b in zip(variances, variances[1:]))
    # the asymptote sqrt(2 ln n) stays an upper bound at these sizes
    for k, mean in zip((4, 8, 12, 16), means):
        assert mean < math.sqrt(2 * k * math.log(2))


def test_max_normal_validation():
    with pytest.raises(ValueError):
        expected_max_normal(0)
    with pytest.raises(ValueError):
        expected_max_normal(2.5)
    # a bool is not a pool size
    with pytest.raises(ValueError):
        expected_max_normal(True)
    with pytest.raises(ValueError):
        var_max_normal(True)
    # pools stop at the fast samplers' 2^960, where the variance still
    # tracks pi^2 / (12 ln n)
    with pytest.raises(ValueError, match="2\\^960"):
        expected_max_normal(2**961)
    assert var_max_normal(2**960) > 0


def test_max_normal_quadrature_rejects_a_nan_error(monkeypatch):
    # a nan error estimate once passed the "error exceeds 1e-8" comparison
    calls = []

    def nan_log_ndtr(x):
        calls.append(x.shape)
        return np.full_like(x, math.nan)

    monkeypatch.setattr(corrcomm.schemes, "log_ndtr", nan_log_ndtr)
    with pytest.raises(ArithmeticError, match="error nan exceeds"):
        _max_normal_moments(12347)  # a pool no other test caches
    assert len(calls) == 1  # the 20-node rule and its 10-node check, side by side


@pytest.mark.parametrize(
    "n, mean_hex, var_hex",
    [
        (2, "0x1.20dd750429b6fp-1", "0x1.5d067c91b1bc0p-1"),
        (1024, "0x1.9fc650b4bd5fcp+1", "0x1.f7f15fb84a609p-4"),
        (2**20, "0x1.37d3aa1918eaep+2", "0x1.f61f0e9f83d3ep-5"),
    ],
    ids=["n=2", "n=1024", "n=2^20"],
)
def test_max_normal_quadrature_is_pinned(n, mean_hex, var_hex):
    # exact floats, so a change in the integrand's arithmetic shows in the
    # last bit even where it stays inside the quadrature tolerance
    assert expected_max_normal(n) == float.fromhex(mean_hex)
    assert var_max_normal(n) == float.fromhex(var_hex)


@pytest.mark.parametrize("n", [16, 32, 128, 200, 1000])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.55, 0.95, 0.0, 1.0])  # 0 and 1: point masses
def test_binom_pmf_matches_scipy_stats(n, p):
    from scipy.stats import binom  # the package itself must not import it

    ours = _binom_pmf(n, p)
    ref = binom.pmf(np.arange(n + 1), n, p)
    np.testing.assert_allclose(ours, ref, rtol=1e-11, atol=0)


def test_exact_mse_formulas():
    assert naive_mse_exact(64, 0.5) == pytest.approx(0.75 / 64, abs=0)
    n = 2**10
    expected = (1 - 0.25 + 0.25 * var_max_normal(n)) / expected_max_normal(n) ** 2
    assert max_scheme_mse_exact(10, 0.5) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("oracle", [naive_mse_exact, max_scheme_mse_exact])
def test_exact_mse_oracles_check_their_correlation(oracle):
    # rho = 2 once gave a negative risk (-0.75 and -0.58 at k = 4)
    for rho in (2.0, -1.5, math.nan, True):
        with pytest.raises(ValueError, match="correlation must"):
            oracle(4, rho)


# ----------------------------------------------------------------------
# transcript containers
# ----------------------------------------------------------------------

def test_message_validation():
    assert Message("alice", "0101").bit_count == 4
    with pytest.raises(ValueError):
        Message("carol", "01")
    with pytest.raises(ValueError):
        Message("bob", "021")


def test_transcript_budget_and_order():
    msg = Message("alice", "01")
    t = Transcript(budget=4, messages=(msg, Message("bob", "1")))
    assert t.bits_used == 3 == sum(m.bit_count for m in t.messages)
    # bits_used is stored at construction but stays out of equality and repr
    same = Transcript(budget=4, messages=(msg, Message("bob", "1")))
    assert t == same and hash(t) == hash(same)
    assert t != Transcript(budget=5, messages=t.messages)
    assert repr(t) == (
        "Transcript(budget=4, messages=(Message(speaker='alice', payload='01'), "
        "Message(speaker='bob', payload='1')))"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.bits_used = 2
    with pytest.raises(TypeError):
        Transcript(budget=4, messages=(msg,), bits_used=2)
    with pytest.raises(ValueError, match="spends 3 bits, budget is 2"):
        Transcript(budget=2, messages=(msg, Message("bob", "1")))
    with pytest.raises(ValueError):
        Transcript(budget=4, messages=(Message("bob", "1"),))
    with pytest.raises(ValueError):
        Transcript(budget=0, messages=())


def test_estimate_result_validation():
    t = Transcript(budget=4, messages=(Message("alice", "01"),))
    with pytest.raises(ValueError):
        EstimateResult(rho_hat=1.5, transcript=t)
    ok = EstimateResult(rho_hat=0.0, transcript=t)
    assert ok.bits_used == ok.transcript.bits_used == 2


def test_risk_report_rejects_nan():
    # a nan gap once passed the "gap exceeds 1e-9" comparison
    fields = dict(scheme="naive", rho_true=0.5, k=8, trials=100, bias=0.0,
                  variance=0.01, ci95_halfwidth=0.001, seed=SEED)
    RiskReport(mse=0.01, **fields)
    with pytest.raises(ValueError, match="inconsistent"):
        RiskReport(mse=math.nan, **fields)


# ----------------------------------------------------------------------
# batch runners
# ----------------------------------------------------------------------

def test_naive_perfect_correlation():
    batch = gen_pairs(CorrelationModel("binary", 1.0), 32, SEED)
    result = run_naive(32, batch)
    assert result.rho_hat == 1.0
    assert result.bits_used == 32


def test_naive_payload_carries_the_signs():
    batch = binary_batch([1, -1, 1, -1], [1, 1, -1, -1])
    result = run_naive(4, batch)
    assert result.transcript.messages[0].payload == "1010"
    assert result.rho_hat == pytest.approx(0.0, abs=0)


def test_naive_validation():
    batch = binary_batch([1, -1], [1, 1])
    with pytest.raises(ValueError):
        run_naive(3, batch)  # too short
    with pytest.raises(ValueError):
        run_naive(0, batch)
    gauss = gen_pairs(CorrelationModel("gaussian", 0.0), 8, SEED)
    with pytest.raises(ValueError):
        run_naive(4, gauss)


def test_max_scheme_points_at_the_argmax():
    x = np.zeros(8)
    x[5] = 3.0
    y = np.arange(8.0)
    result = run_max_scheme(3, gaussian_batch(x, y))
    assert result.aux["winner"] == 5
    assert result.transcript.messages[0].payload == "101"
    assert result.aux["raw"] == pytest.approx(5.0 / expected_max_normal(8), abs=1e-12)
    assert result.rho_hat == 1.0  # clamped


def test_max_scheme_tie_picks_smallest_index():
    x = np.array([2.0, 2.0, 1.0, 0.0])
    result = run_max_scheme(2, gaussian_batch(x, np.zeros(4)))
    assert result.aux["winner"] == 0


def test_max_scheme_validation():
    batch = gen_pairs(CorrelationModel("gaussian", 0.0), 4, SEED)
    with pytest.raises(ValueError):
        run_max_scheme(3, batch)  # needs 8 samples
    with pytest.raises(ValueError):
        run_max_scheme(27, batch)  # pointer guard
    binary = gen_pairs(CorrelationModel("binary", 0.0), 4, SEED)
    with pytest.raises(ValueError):
        run_max_scheme(2, binary)


def test_local_scheme_full_prefix_degenerates_to_max():
    batch = gen_pairs(CorrelationModel("gaussian", 0.3), 2**6, SEED)
    local = run_local_scheme(6, 0.0, batch)
    top = run_max_scheme(6, batch)
    assert local.transcript.messages[0].bit_count == 6
    assert local.rho_hat == top.rho_hat
    assert not local.aux["decode_failed"]


def test_local_scheme_prefix_width():
    batch = gen_pairs(CorrelationModel("gaussian", 0.6), 2**18, SEED)
    result = run_local_scheme(18, 0.6, batch)
    # ceil(18 * (1 - 0.36) * 1.15) = 14 of the 18 index bits
    assert result.transcript.messages[0].bit_count == 14
    assert result.bits_used == 14
    assert result.transcript.bits_used == 14


def test_local_scheme_decode_outcomes():
    # argmax at index 0, prefix covers indices 0..3 (k=4, m=2)
    x = np.array([5.0, 0.1, 0.2, 0.3] + [-1.0] * 12)
    thr_clear = 3.0  # threshold at nominal 0.8 is ~1.70
    quiet = np.full(16, -2.0)

    none_marked = run_local_scheme(4, 0.8, gaussian_batch(x, quiet))
    assert none_marked.aux["decode_failed"]
    assert none_marked.rho_hat == pytest.approx(0.8, abs=0)

    y = quiet.copy()
    y[0] = thr_clear
    y[2] = thr_clear
    two_marked = run_local_scheme(4, 0.8, gaussian_batch(x, y))
    assert two_marked.aux["decode_failed"]

    y = quiet.copy()
    y[2] = thr_clear
    wrong = run_local_scheme(4, 0.8, gaussian_batch(x, y))
    assert not wrong.aux["decode_failed"]
    assert wrong.aux["decoded"] == 2
    assert wrong.aux["raw"] == pytest.approx(
        thr_clear / expected_max_normal(16), abs=1e-12
    )


def test_local_scheme_validation():
    batch = gen_pairs(CorrelationModel("gaussian", 0.0), 16, SEED)
    with pytest.raises(ValueError):
        run_local_scheme(4, 1.0, batch)
    with pytest.raises(ValueError):
        run_local_scheme(5, 0.0, batch)  # needs 32 samples


# ----------------------------------------------------------------------
# binary block scheme
# ----------------------------------------------------------------------

def test_block_layout_frozen_example():
    layout = block_layout(0.5, 32, 0.0)
    assert layout.target_sum == 16
    assert layout.m_blocks == 2232
    assert layout.index_bits == 12
    assert layout.prefix_bits == 12  # capped at the full index width
    assert layout.window == pytest.approx(math.sqrt(32), abs=0)
    assert layout.center == 0.0
    assert layout.samples_needed == 2232 * 32


def test_block_layout_partial_prefix():
    # high nominal correlation squeezes the prefix below the index width
    layout = block_layout(0.2, 200, 0.9)
    assert layout.index_bits == 13
    assert layout.prefix_bits == 12


def test_block_layout_validation():
    with pytest.raises(ValueError):
        block_layout(0.3, 32, 0.0)  # 9.6 signs is not a sum
    with pytest.raises(ValueError):
        block_layout(0.5, 30, 0.0)  # sum 15 has the wrong parity
    with pytest.raises(ValueError):
        block_layout(0.0, 32, 0.0)
    with pytest.raises(ValueError):
        block_layout(0.5, 33, 1.5)
    with pytest.raises(ValueError, match="nominal"):
        block_layout(0.5, 32, 1.5)  # 33 above fails on its sum first
    with pytest.raises(ValueError, match="block size"):
        block_layout(1.0, 1, 0.0)
    with pytest.raises(ValueError, match="positive integer"):
        block_layout(1e-300, 32, 0.0)  # 3.2e-299 is within 1e-9 of a sum of 0
    with pytest.raises(ValueError, match="guard bits"):
        block_layout(0.5, 32, 0.0, guard_bits=-100)
    assert block_layout(0.5, 32, 0.0, guard_bits=0).prefix_bits >= 1
    with pytest.raises(ValueError):
        block_layout(0.5, 120, 0.0)  # needs > 1e8 samples


def test_block_scheme_perfect_correlation():
    # three handmade blocks; the third has the target sum 2 and y = x
    n, m = 4, 21  # layout at (0.5, 4, 0.0)
    x = np.ones(n * m)
    x[4:8] = [1, 1, -1, -1]
    x[8:12] = [1, 1, 1, -1]
    batch = binary_batch(x, x.copy())
    result = run_binary_block(5, 0.5, n, batch, rho_nominal=0.0)
    assert result.aux["anchor_block"] == 2
    assert result.aux["decoded"] == 2
    assert not result.aux["exist_failed"]
    assert result.rho_hat == 1.0


def test_block_scheme_exist_failure_falls_back():
    n, m = 4, 21
    x = np.ones(n * m)  # every block sums to 4, never 2
    y = x.copy()
    y[1] = -1.0  # block-1 correlation 0.5
    result = run_binary_block(5, 0.5, n, binary_batch(x, y), rho_nominal=0.0)
    assert result.aux["exist_failed"]
    assert result.rho_hat == pytest.approx(0.5, abs=0)


def test_block_scheme_budget_and_family():
    batch = gen_pairs(CorrelationModel("binary", 0.0), 21 * 4, SEED)
    with pytest.raises(ValueError):
        run_binary_block(4, 0.5, 4, batch, rho_nominal=0.0)  # needs 5 bits
    gauss = gen_pairs(CorrelationModel("gaussian", 0.0), 21 * 4, SEED)
    with pytest.raises(ValueError):
        run_binary_block(5, 0.5, 4, gauss, rho_nominal=0.0)
    short = gen_pairs(CorrelationModel("binary", 0.0), 21 * 4 - 1, SEED)
    with pytest.raises(ValueError, match="need at least 84 pairs"):
        run_binary_block(5, 0.5, 4, short, rho_nominal=0.0)


def test_block_scheme_partial_prefix_run():
    layout = block_layout(0.2, 200, 0.9)
    batch = gen_pairs(
        CorrelationModel("binary", 0.6), layout.samples_needed, SEED
    )
    result = run_binary_block(12, 0.2, 200, batch, rho_nominal=0.9)
    assert result.bits_used == 12
    if result.aux["decoded"] is not None and not result.aux["exist_failed"]:
        shift = layout.index_bits - layout.prefix_bits
        assert result.aux["decoded"] >> shift == result.aux["anchor_block"] >> shift


def test_block_runner_resolves_its_layout_once():
    # a runner, a literal cell of 300 trials (60 stacks) and a fast cell
    # each look the layout up once: its plan carries it to every stack
    layout = block_layout(0.5, 16, 0.4)
    batch = gen_pairs(CorrelationModel("binary", 0.4), layout.samples_needed, SEED)
    params = {"rho_tilde": 0.5, "n_block": 16, "rho_nominal": 0.4}

    def lookups(run):
        before = block_layout.cache_info()
        run()
        after = block_layout.cache_info()
        return (after.hits + after.misses) - (before.hits + before.misses)

    assert lookups(lambda: run_binary_block(8, 0.5, 16, batch, rho_nominal=0.4)) == 1
    for literal in (True, False):
        config = SchemeConfig("binary_block", 8, params, use_batches=literal)
        assert lookups(lambda: estimate_risk(config, 0.4, 300, SEED)) == 1


def block_scheme_by_full_scan(rho_tilde, n_block, batch, rho_nominal):
    """run_binary_block's (anchor, decoded, raw) at guard_bits 0, marking
    every block of bob's."""
    layout = block_layout(rho_tilde, n_block, rho_nominal, 0)
    n, m = layout.n_block, layout.m_blocks
    xs = batch.x[: n * m].reshape(m, n)
    ys = batch.y[: n * m].reshape(m, n)
    hits = np.nonzero(xs.sum(axis=1) == layout.target_sum)[0]
    anchor = int(hits[0]) if hits.size else 0
    shift = layout.index_bits - layout.prefix_bits
    marked = np.nonzero(np.abs(ys.sum(axis=1) - layout.center) <= layout.window)[0]
    matches = marked[(marked >> shift) == anchor >> shift]
    decoded = None
    if hits.size and (shift == 0 or matches.size == 1):
        decoded = anchor if shift == 0 else int(matches[0])
    if decoded is None:
        return anchor, None, float(np.mean(xs[0] * ys[0]))
    return anchor, decoded, float(ys.sum(axis=1)[decoded] / (n * rho_tilde))


def numbered_pairs(model, n, trial):
    """gen_pairs' recipe for n pairs of model, drawn from the stream of
    SeedSequence([SEED, *tag words, trial]): one batch per trial number."""
    entropy = [SEED, *_tag_words(f"gen_pairs/{model.family}"), trial]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
    return _draw_pairs(model, n, rng)


@pytest.mark.parametrize(
    "rho_tilde, n_block, rho_nominal",
    [(0.5, 4, 0.9), (0.5, 8, 1.0), (0.5, 16, 0.5), (1.0, 2, 0.9), (1.0, 3, 0.5)],
)
def test_block_scheme_matches_a_full_scan(rho_tilde, n_block, rho_nominal):
    # bob marks only the anchor's bucket; every block's marks give the same run
    layout = block_layout(rho_tilde, n_block, rho_nominal, 0)
    assert layout.prefix_bits < layout.index_bits
    k = layout.prefix_bits
    decoded = 0
    for trial in range(60):
        model = CorrelationModel("binary", (-0.9, 0.3, 0.8)[trial % 3])
        batch = numbered_pairs(model, layout.samples_needed, trial)
        result = run_binary_block(k, rho_tilde, n_block, batch, rho_nominal, 0)
        anchor, want, raw = block_scheme_by_full_scan(
            rho_tilde, n_block, batch, rho_nominal
        )
        assert result.aux["anchor_block"] == anchor
        assert result.aux["decoded"] == want
        assert result.aux["raw"] == raw and type(result.aux["raw"]) is float
        decoded += want is not None
    assert 0 < decoded < 60  # both the decode and the fallback ran


def test_sign_means_are_the_float_mean_of_the_products():
    # runners count sign agreements instead of averaging the products
    for trial in range(50):
        batch = numbered_pairs(CorrelationModel("binary", 0.3), 41, trial)
        raw = run_naive(41, batch).aux["raw"]
        assert raw == float(np.mean(batch.x * batch.y)) and type(raw) is float
        gauss = numbered_pairs(CorrelationModel("gaussian", 0.3), 7 + 2**3, trial)
        sign_x = np.where(gauss.x[:7] >= 0, 1.0, -1.0)
        signs = sign_x * np.where(gauss.y[:7] >= 0, 1.0, -1.0)
        rho0 = min(0.95, max(-0.95, math.sin(0.5 * math.pi * float(np.mean(signs)))))
        assert run_two_way(10, 7, gauss).aux["rho0_hat"] == rho0


# ----------------------------------------------------------------------
# two-way scheme
# ----------------------------------------------------------------------

def test_default_phase1_bits():
    assert default_phase1_bits(64) == 8
    assert default_phase1_bits(10) == 4


def test_two_way_composition_is_literal():
    k, k1 = 8, 3
    batch = gen_pairs(CorrelationModel("gaussian", 0.6), k1 + 2**5, SEED)
    result = run_two_way(k, k1, batch)
    # phase 1: arcsine inversion of the sign-agreement mean
    signs = np.sign(batch.x[:k1]) * np.sign(batch.y[:k1])
    rho0 = math.sin(0.5 * math.pi * float(signs.mean()))
    rho0 = max(-0.95, min(0.95, rho0))
    assert result.aux["rho0_hat"] == pytest.approx(rho0, abs=1e-12)
    # phase 2 equals the local scheme on the remaining samples
    tail = gaussian_batch(batch.x[k1 : k1 + 2**5], batch.y[k1 : k1 + 2**5])
    local = run_local_scheme(k - k1, rho0, tail)
    assert result.rho_hat == local.rho_hat
    assert result.bits_used == k1 + local.bits_used
    assert [m.speaker for m in result.transcript.messages] == ["alice", "alice"]


def test_two_way_validation():
    batch = gen_pairs(CorrelationModel("gaussian", 0.0), 64, SEED)
    with pytest.raises(ValueError):
        run_two_way(5, 0, batch)
    with pytest.raises(ValueError):
        run_two_way(5, 5, batch)
    with pytest.raises(ValueError):
        run_two_way(5, 6, batch)


# ----------------------------------------------------------------------
# fast samplers against the literal protocols
# ----------------------------------------------------------------------

def both_paths(scheme, k, rho, params, t_batch, t_fast, seed=SEED):
    slow = estimate_risk(
        SchemeConfig(scheme, k, params, use_batches=True), rho, t_batch, seed
    )
    fast = estimate_risk(SchemeConfig(scheme, k, params), rho, t_fast, seed + 1)
    return slow, fast


def assert_compatible(slow, fast, t_batch, t_fast):
    se_mean = math.hypot(
        slow.extras["raw_se_mean"], fast.extras["raw_se_mean"]
    )
    assert abs(slow.extras["raw_mean"] - fast.extras["raw_mean"]) < 3 * se_mean
    se_mse = math.hypot(
        slow.extras["raw_mse_ci95"] / 1.96, fast.extras["raw_mse_ci95"] / 1.96
    )
    assert abs(slow.extras["raw_mse"] - fast.extras["raw_mse"]) < 3 * se_mse
    for key in ("decode_fail_rate", "exist_fail_rate"):
        if key in slow.extras and key in fast.extras:
            p = fast.extras[key]
            se = math.sqrt(max(p * (1 - p), 1e-12) * (1 / t_batch + 1 / t_fast))
            assert abs(slow.extras[key] - p) < 3 * se + 1e-12


def test_naive_sampler_matches_batch():
    slow, fast = both_paths("naive", 16, 0.3, {}, 3000, 100_000)
    assert_compatible(slow, fast, 3000, 100_000)
    assert fast.mse == pytest.approx(naive_mse_exact(16, 0.3), rel=0.05)


def test_max_sampler_matches_batch():
    slow, fast = both_paths("max", 6, 0.5, {}, 3000, 100_000)
    assert_compatible(slow, fast, 3000, 100_000)
    assert fast.extras["raw_mse"] == pytest.approx(
        max_scheme_mse_exact(6, 0.5), rel=0.05
    )


def test_local_sampler_matches_batch():
    params = {"rho_nominal": 0.5}
    slow, fast = both_paths("local", 8, 0.5, params, 3000, 100_000)
    assert slow.extras["decode_fail_rate"] > 0  # the marking path is active
    assert_compatible(slow, fast, 3000, 100_000)


def test_block_sampler_matches_batch():
    params = {"rho_tilde": 0.5, "n_block": 16, "rho_nominal": 0.4}
    slow, fast = both_paths("binary_block", 8, 0.4, params, 600, 60_000)
    assert_compatible(slow, fast, 600, 60_000)


def test_block_sampler_matches_batch_partial_prefix():
    params = {"rho_tilde": 0.2, "n_block": 200, "rho_nominal": 0.9}
    slow, fast = both_paths("binary_block", 12, 0.6, params, 150, 60_000)
    assert_compatible(slow, fast, 150, 60_000)


def block_decode_fail_exact(layout, rho):
    """P(a block hits the target and the anchor's bucket holds != 1 mark)."""
    n, m = layout.n_block, layout.m_blocks
    a_hit = (n + layout.target_sum) // 2
    keep = (1.0 + rho) / 2.0

    def pmf(count, trials, p):
        return math.comb(trials, count) * p**count * (1.0 - p) ** (trials - count)

    def is_marked(bob_sum):
        return abs(bob_sum - layout.center) <= layout.window

    p_hit = pmf(a_hit, n, 0.5)
    q_all = sum(pmf(c, n, 0.5) for c in range(n + 1) if is_marked(2 * c - n))
    q_hit = sum(
        pmf(u, a_hit, keep) * pmf(v, n - a_hit, keep)
        for u in range(a_hit + 1)
        for v in range(n - a_hit + 1)
        if is_marked(2 * (u - v) - layout.target_sum)
    )
    q_miss = (q_all - p_hit * q_hit) / (1.0 - p_hit)
    width = 1 << (layout.index_bits - layout.prefix_bits)
    fail = 1.0 - (1.0 - p_hit) ** m  # a hit exists
    for j in range(m):
        start = j - j % width
        before, after = j - start, min(start + width, m) - j - 1
        none_before = (1.0 - q_miss) ** before
        none_after = (1.0 - q_all) ** after
        one_other = (
            before * q_miss * (1.0 - q_miss) ** max(before - 1, 0) * none_after
            + after * q_all * (1.0 - q_all) ** max(after - 1, 0) * none_before
        )
        exactly_one = q_hit * none_before * none_after + (1.0 - q_hit) * one_other
        fail -= (1.0 - p_hit) ** j * p_hit * exactly_one
    return fail


def test_block_sampler_matches_batch_in_small_buckets():
    # 195 blocks, 8 index bits, a 6-bit prefix: 4-block buckets, block 0
    # inside the anchor's bucket whenever j* < 4, and a 3-block last bucket
    params = {"rho_tilde": 0.5, "n_block": 16, "rho_nominal": 0.9, "guard_bits": 0}
    layout = block_layout(0.5, 16, 0.9, guard_bits=0)
    assert (layout.m_blocks, layout.index_bits, layout.prefix_bits) == (195, 8, 6)
    slow, fast = both_paths("binary_block", 8, 0.9, params, 20_000, 1_000_000)
    assert slow.extras["decode_fail_rate"] > 0
    assert_compatible(slow, fast, 20_000, 1_000_000)
    # no block hits the target sum 8, i.e. 12 plus-ones, in any of 195 blocks
    p_none = (1.0 - math.comb(16, 12) / 2**16) ** 195
    se = math.sqrt(p_none * (1.0 - p_none) / 1_000_000)
    assert abs(fast.extras["exist_fail_rate"] - p_none) < 3 * se
    p_fail = block_decode_fail_exact(layout, 0.9)
    se = math.sqrt(p_fail * (1.0 - p_fail) / 1_000_000)
    assert abs(fast.extras["decode_fail_rate"] - p_fail) < 3 * se


def test_two_way_sampler_matches_batch():
    params = {"k1": 3}
    slow, fast = both_paths("two_way", 8, 0.6, params, 3000, 100_000)
    assert_compatible(slow, fast, 3000, 100_000)


def local_trials_by_count(k, rho, trials, rng, rho_nominal, codes=None):
    """The fast local sampler with its marks drawn as one binomial count.

    Reference for the sampler's single-uniform mark draw; exact only while
    the 2^(k - m) - 1 bucket mates fit numpy's int64 count. It draws each
    phase for the whole cell at once, where the sampler draws in chunks.
    """
    if codes is not None:
        rho_nominal = rho_nominal[codes]
    nominal = np.broadcast_to(np.asarray(rho_nominal, dtype=float), (trials,))
    n_pool = 2**k
    mean_max = expected_max_normal(n_pool)
    x_w = _sample_max_normal(n_pool, trials, rng)
    y_w = rho * x_w + math.sqrt(1.0 - rho * rho) * rng.standard_normal(trials)
    raw = np.array(nominal)
    failed = np.zeros(trials, dtype=bool)
    for value in np.unique(nominal):
        sel = np.nonzero(nominal == value)[0]
        m = _local_prefix_bits(k, float(value))
        if m == k:
            raw[sel] = y_w[sel] / mean_max
            continue
        threshold = _local_threshold(k, float(value))
        marked_w = y_w[sel] > threshold
        others = (1 << (k - m)) - 1
        spurious = rng.binomial(others, ndtr(-threshold), size=sel.size)
        success = marked_w & (spurious == 0)
        wrong = ~marked_w & (spurious == 1)
        fail = ~(success | wrong)
        raw[sel[success]] = y_w[sel[success]] / mean_max
        n_wrong = int(wrong.sum())
        if n_wrong:
            q = corrcomm.schemes.ndtr(-threshold)
            raw[sel[wrong]] = _sample_tail_normal(q, n_wrong, rng) / mean_max
        failed[sel[fail]] = True
    return np.clip(raw, -1.0, 1.0), {"raw": raw, "decode_failed": failed}


@pytest.mark.parametrize("scheme", ["local", "two_way"])
def test_local_mark_draw_reads_the_binomial_counts_uniform(monkeypatch, scheme):
    # where numpy inverts Bin(B, q) (q <= 1/2, B q <= 30) the single uniform
    # is the very one the count read, so every report is bit-identical
    cells = [(k, rho) for k in (8, 12, 16, 20) for rho in (0.0, 0.3, 0.6, 0.9)]
    swapped = [estimate_risk(SchemeConfig(scheme, k), rho, 2000, SEED) for k, rho in cells]
    monkeypatch.setattr(corrcomm.schemes, "_local_trials", local_trials_by_count)
    assert [
        estimate_risk(SchemeConfig(scheme, k), rho, 2000, SEED) for k, rho in cells
    ] == swapped


def test_local_mark_draw_keeps_the_law_where_numpy_flips(monkeypatch):
    # at a negative nominal q > 1/2 and numpy counts the unmarked mates, so
    # the streams part; the decode-failure rates agree within 4 s.e.
    config, trials = SchemeConfig("local", 12), 100_000
    swapped = estimate_risk(config, -0.5, trials, SEED).extras["decode_fail_rate"]
    monkeypatch.setattr(corrcomm.schemes, "_local_trials", local_trials_by_count)
    reference = estimate_risk(config, -0.5, trials, SEED).extras["decode_fail_rate"]
    assert 0.3 < reference < 0.7  # the marking path decides most trials
    se = math.sqrt(2 * reference * (1 - reference) / trials)
    assert abs(swapped - reference) < 4 * se


PAST_THE_OLD_CAP = [
    ("local", 500, {}, 0.5),
    ("two_way", 80, {}, 0.95),
    ("two_way", 963, {"k1": 3}, 0.0),
] + [
    ("local", k, {"rho_nominal": rho0}, rho0)
    for k in (1, 62, 63, 200, 960)
    for rho0 in (-0.99, -0.5, 0.0, 0.5, 0.99)
]


@pytest.mark.parametrize("scheme, k, params, rho", PAST_THE_OLD_CAP)
def test_local_marks_run_to_the_pool_bound(scheme, k, params, rho):
    # one uniform decides the marks among up to 2^960 - 1 bucket mates
    report = estimate_risk(SchemeConfig(scheme, k, params), rho, 200, SEED)
    raw = (report.mse, report.extras["raw_mean"], report.extras["raw_mse"])
    assert all(math.isfinite(value) for value in raw)
    assert 0.0 <= report.extras["decode_fail_rate"] <= 1.0


def test_local_marks_with_a_lone_mate_that_is_always_marked():
    # k = 600 at nominal -0.364 leaves one bucket mate (m = 599), marked with
    # q = Phi(9.45), which rounds to 1.0; (mates - 1) log1p(-q) must read 0
    # there, not 0 * -inf = nan. Bytes recorded with scipy's xlog1py.
    assert _local_prefix_bits(600, -0.364) == 599
    assert corrcomm.schemes.ndtr(-_local_threshold(600, -0.364)) == 1.0
    report = estimate_risk(SchemeConfig("local", 600, {"rho_nominal": -0.364}), -0.364, 2000, 7)
    assert report.mse.hex() == "0x1.ce79ee5f7159ep-4"
    assert report.bias.hex() == "0x1.3bdebaa0cad8bp-2"
    assert report.extras["decode_fail_rate"] == 0.1495


# ----------------------------------------------------------------------
# preconditions and the risk harness
# ----------------------------------------------------------------------

def test_check_preconditions_sample_counts():
    assert check_preconditions(SchemeConfig("naive", 64), 0.0) == 64
    assert check_preconditions(SchemeConfig("max", 10), 0.0) == 1024
    assert (
        check_preconditions(SchemeConfig("two_way", 8, {"k1": 3}), 0.0) == 3 + 32
    )
    # the largest pool the fast sampler takes, and a numpy k1 that would
    # wrap in 2**(k - k1)
    assert check_preconditions(SchemeConfig("max", 960), 0.0) == 2**960
    assert check_preconditions(
        SchemeConfig("two_way", 963, {"k1": np.int64(3)}), 0.0
    ) == 3 + 2**960
    # the naive budget up to its fast binomial's int64 count
    assert check_preconditions(SchemeConfig("naive", 2**63 - 1), 0.0) == 2**63 - 1


def test_check_preconditions_rejects_bad_cells():
    with pytest.raises(ValueError):
        check_preconditions(SchemeConfig("naive", 8), 1.5)
    # True once ran at rho = 1 and reported rho_true 1.0; "0.5" raised TypeError
    for rho in (True, "0.5"):
        with pytest.raises(ValueError, match="correlation must be a finite number"):
            check_preconditions(SchemeConfig("max", 8), rho)
        with pytest.raises(ValueError, match="correlation must be a finite number"):
            estimate_risk(SchemeConfig("max", 8), rho, 100, 0)
    with pytest.raises(ValueError):
        check_preconditions(
            SchemeConfig("local", 8, {"rho_nominal": 1.0}), 0.0
        )
    with pytest.raises(ValueError):
        check_preconditions(SchemeConfig("two_way", 8, {"k1": 0}), 0.0)
    with pytest.raises(ValueError):
        check_preconditions(SchemeConfig("two_way", 8, {"k1": 8}), 0.0)
    with pytest.raises(ValueError):
        check_preconditions(SchemeConfig("binary_block", 8), 0.0)  # no params
    with pytest.raises(ValueError):
        check_preconditions(
            SchemeConfig("binary_block", 4, {"rho_tilde": 0.5, "n_block": 4}), 0.0
        )  # needs 5 bits
    with pytest.raises(ValueError):
        check_preconditions(
            SchemeConfig("max", 30, use_batches=True), 0.0
        )  # batch pointer guard
    # past 2^960 pointers the fast max-normal draw leaves its law
    with pytest.raises(ValueError, match="2\\^960"):
        check_preconditions(SchemeConfig("max", 961), 0.0)
    with pytest.raises(ValueError, match="2\\^960"):
        check_preconditions(SchemeConfig("two_way", 964, {"k1": 3}), 0.0)
    # the naive budget: an int64 count for the fast binomial, and a literal
    # run materializes its pairs under the pointer pools' guard
    with pytest.raises(ValueError, match="fast naive budget"):
        check_preconditions(SchemeConfig("naive", 10**300), 0.5)
    with pytest.raises(ValueError, match="literal naive budget"):
        check_preconditions(SchemeConfig("naive", 2**40, use_batches=True), 0.5)


def test_check_preconditions_resolves_params():
    # unknown keys fail by name, whether misspelt or another scheme's
    with pytest.raises(ValueError, match="c_bit"):
        check_preconditions(SchemeConfig("local", 8, {"c_bit": 0.2}), 0.0)
    with pytest.raises(ValueError, match="rho_nominal"):
        check_preconditions(SchemeConfig("two_way", 8, {"rho_nominal": 0.5}), 0.0)
    with pytest.raises(ValueError, match="rho_nominal"):
        check_preconditions(SchemeConfig("local", 8, {"rho_nominal": True}), 0.0)
    with pytest.raises(ValueError, match="rho_nominal"):
        check_preconditions(SchemeConfig("local", 8, {"rho_nominal": math.inf}), 0.0)
    # the marking and block-count constants are fixed, not parameters
    block = {"rho_tilde": 0.5, "n_block": 32}
    for scheme, params in [
        ("local", {"c_threshold": 0.1}),
        ("two_way", {"c_bits": 0.15}),
        ("binary_block", {**block, "exist_factor": 6.0}),
    ]:
        (name,) = set(params) - set(block)
        with pytest.raises(ValueError, match=f"takes no parameter '{name}'"):
            check_preconditions(SchemeConfig(scheme, 64, params), 0.5)
    # counts must be integers
    for scheme, params in [
        ("binary_block", {**block, "n_block": 32.0}),
        ("binary_block", {**block, "guard_bits": 0.5}),
        ("binary_block", {**block, "guard_bits": True}),
        ("two_way", {"k1": 3.0}),
    ]:
        with pytest.raises(ValueError, match="must be an integer"):
            check_preconditions(SchemeConfig(scheme, 64, params), 0.5)
    # None means the default: k1 = ceil(sqrt(9)) = 3
    assert check_preconditions(SchemeConfig("two_way", 9, {"k1": None}), 0.0) == 3 + 64
    # the block scheme's nominal correlation defaults to the true one: at
    # rho = 0.9 the 12-bit prefix fits k = 12, at rho = 0 it does not
    partial = {"rho_tilde": 0.2, "n_block": 200}
    needed = block_layout(0.2, 200, 0.9).samples_needed
    assert check_preconditions(SchemeConfig("binary_block", 12, partial), 0.9) == needed
    with pytest.raises(ValueError, match="bits"):
        check_preconditions(SchemeConfig("binary_block", 12, partial), 0.0)


RUNNERS = {
    "naive": run_naive,
    "max": run_max_scheme,
    "local": run_local_scheme,
    "two_way": run_two_way,
    "binary_block": run_binary_block,
}
BLOCK = {"rho_tilde": 0.5, "n_block": 4, "rho_nominal": 0.0, "guard_bits": 4}
PAST = MAX_POINTER_BITS + 1
# (scheme, k, params) cells, every parameter given, accepted or not
RUNNER_CELLS = [
    ("naive", 0, {}),
    ("naive", 1, {}),
    ("naive", PAST, {}),
    ("max", 0, {}),
    ("max", 1, {}),
    ("max", MAX_POINTER_BITS, {}),
    ("max", PAST, {}),
    ("local", 0, {"rho_nominal": 0.5}),
    ("local", 6, {"rho_nominal": 0.0}),
    ("local", 6, {"rho_nominal": 1.0}),
    ("local", 6, {"rho_nominal": -1.0}),
    ("local", MAX_POINTER_BITS, {"rho_nominal": 0.5}),
    ("local", PAST, {"rho_nominal": 0.5}),
    ("two_way", 0, {"k1": 1}),
    ("two_way", 8, {"k1": 0}),
    ("two_way", 8, {"k1": 3}),
    ("two_way", 8, {"k1": 8}),
    ("two_way", 3 + MAX_POINTER_BITS, {"k1": 3}),
    ("two_way", 3 + PAST, {"k1": 3}),
    ("binary_block", 0, BLOCK),
    ("binary_block", 5, BLOCK),
    ("binary_block", 4, BLOCK),  # the 5-bit prefix is longer than k
    ("binary_block", MAX_POINTER_BITS, BLOCK),
    ("binary_block", 5, {**BLOCK, "rho_nominal": 1.0}),
    ("binary_block", 5, {**BLOCK, "rho_nominal": -1.0}),
    ("binary_block", 5, {**BLOCK, "rho_nominal": 1.5}),
    ("binary_block", 8, {**BLOCK, "rho_tilde": 0.3, "n_block": 32}),  # no integer sum
    ("binary_block", 8, {**BLOCK, "rho_tilde": 1.0, "n_block": 1}),
    ("binary_block", 8, {**BLOCK, "rho_tilde": 1e-300, "n_block": 32}),  # sum 0
    ("binary_block", 8, {**BLOCK, "guard_bits": -100}),
    # counts given as floats or bools, a budget that is not an integer
    ("two_way", 10, {"k1": True}),
    ("two_way", 10, {"k1": 3.0}),
    ("binary_block", 8, {**BLOCK, "n_block": 16.0}),
    ("binary_block", 5, {**BLOCK, "guard_bits": True}),
    ("naive", 8.0, {}),
    ("max", True, {}),
]


def constant_batch(n, family):
    # +1 columns belong to both families; broadcast, a 2^26 pool costs no memory
    column = np.broadcast_to(1.0, (n,))
    return PairBatch._trusted(column, column, family)


@pytest.mark.parametrize("scheme, k, params", RUNNER_CELLS)
def test_runners_reject_the_cells_check_preconditions_rejects(scheme, k, params):
    family = SCHEMES[scheme].family
    other = "gaussian" if family == "binary" else "binary"
    runner = RUNNERS[scheme]
    try:
        needed = check_preconditions(
            SchemeConfig(scheme, k, params, use_batches=True), 0.5
        )
    except ValueError:
        with pytest.raises(ValueError):
            runner(k, batch=constant_batch(2**PAST + 64, family), **params)
        return
    result = runner(k, batch=constant_batch(needed, family), **params)
    assert result.bits_used == sum(len(m.payload) for m in result.transcript.messages)
    with pytest.raises(ValueError, match=f"need at least {needed} pairs"):
        runner(k, batch=constant_batch(needed - 1, family), **params)
    with pytest.raises(ValueError, match=f"expects a {family} batch"):
        runner(k, batch=constant_batch(needed, other), **params)


@pytest.mark.parametrize(
    "scheme, k, params",
    [("local", 6, {"rho_nominal": 0.5}), ("two_way", 8, {"k1": 3}), ("binary_block", 5, BLOCK)],
)
def test_runners_take_no_default_for_a_param_given_as_none(scheme, k, params):
    # a runner's cell has no true correlation to default at: None is refused
    batch = constant_batch(2**PAST + 64, SCHEMES[scheme].family)
    for key in params:
        with pytest.raises(ValueError, match=f"needs parameter '{key}'"):
            RUNNERS[scheme](k, batch=batch, **{**params, key: None})


TABLE_CELLS = [
    ("naive", 8, {}),
    ("max", 6, {}),
    ("local", 6, {}),
    ("two_way", 8, {}),
    ("binary_block", 8, {"rho_tilde": 0.5, "n_block": 16}),
]


@pytest.mark.parametrize("scheme, k, params", TABLE_CELLS)
def test_each_rows_aux_names_the_flags_its_kernel_and_sampler_return(scheme, k, params):
    # a literal cell rates the flags of its row's aux: a flag left out of
    # aux would lose its rate, one aux names and the kernel lacks would fail
    row = SCHEMES[scheme]
    plan = corrcomm.schemes._plan(scheme, k, params, 0.5, True)
    rng = np.random.default_rng(SEED)
    x, y = corrcomm.schemes._draw_stack(CorrelationModel(row.family, 0.5),
                                        plan["pairs"], 3, rng)
    columns = row.stack(k, x, y, plan)
    _, sampled = row.sample(k, 0.5, 100, rng, plan)
    assert "raw" in row.aux and set(row.aux) <= set(columns)
    flags = set(corrcomm.schemes._FLAGS)
    assert flags & set(row.aux) == flags & set(columns) == flags & set(sampled)


def test_estimate_risk_names_the_failing_trial(monkeypatch):
    # a kernel that raises mid-cell is reported with its stack's trial range:
    # naive at k = 8 runs all 100 trials in one stack, max at k = 12 four
    # trials (2^14 pairs) per stack, so its third stack holds trials 8-11
    import corrcomm.schemes

    for scheme, k, kernel, fail_at, first, last in (
        ("naive", 8, "_naive_stack", 1, 0, 99),
        ("max", 12, "_max_stack", 3, 8, 11),
    ):
        original = getattr(corrcomm.schemes, kernel)
        rows = []  # the rows of each stack the kernel is called on

        def fail(*args, _original=original):
            rows.append(len(args[1]))
            if len(rows) == fail_at:
                raise ValueError("planted")
            return _original(*args)

        monkeypatch.setattr(corrcomm.schemes, kernel, fail)
        with pytest.raises(ValueError, match=f"^trials {first}-{last}: planted$"):
            estimate_risk(SchemeConfig(scheme, k, use_batches=True), 0.5, 100, SEED)
        assert rows == [last - first + 1] * fail_at


KERNELS = {
    "naive": "_naive_stack",
    "max": "_max_stack",
    "local": "_local_stack",
    "two_way": "_two_way_stack",
    "binary_block": "_block_stack",
}


def spy_kernel(monkeypatch, scheme):
    """The list that each stack's columns go to as scheme's kernel returns them."""
    name = KERNELS[scheme]
    original = getattr(corrcomm.schemes, name)
    seen = []

    def spy(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(corrcomm.schemes, name, spy)
    return seen


@pytest.mark.parametrize(
    "scheme, k, params, runner, sampler",
    [
        ("naive", 8, {}, "run_naive", "_naive_trials"),
        ("max", 6, {}, "run_max_scheme", "_max_trials"),
        ("local", 6, {}, "run_local_scheme", "_local_trials"),
        ("two_way", 8, {}, "run_two_way", "_two_way_trials"),
        (
            "binary_block", 8, {"rho_tilde": 0.5, "n_block": 16},
            "run_binary_block", "_block_trials",
        ),
    ],
)
def test_scheme_table_calls_through_module_attributes(
    monkeypatch, scheme, k, params, runner, sampler
):
    # wrappers installed on the module (tracers, test doubles) see every call
    import corrcomm.schemes

    runners = [name for name in corrcomm.schemes.__all__ if name.startswith("run_")]
    assert runner in runners
    calls = []
    for name in (*runners, *KERNELS.values(), sampler, "substream", "_draw_stack"):
        original = getattr(corrcomm.schemes, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(corrcomm.schemes, name, spy)
    config = SchemeConfig(scheme, k, params, use_batches=True)
    estimate_risk(config, 0.5, 100, SEED)
    # one stream per cell, then one draw and one kernel call per stack
    # (two_way's phase 2 included); the runners are its one-row case
    stacks = math.ceil(100 / max(1, _STACK // check_preconditions(config, 0.5)))
    assert stacks > 1 if scheme == "binary_block" else stacks == 1
    assert calls == ["substream", *["_draw_stack", KERNELS[scheme]] * stacks]
    calls.clear()
    estimate_risk(SchemeConfig(scheme, k, params), 0.5, 100, SEED)
    assert calls == ["substream", sampler]


@pytest.mark.parametrize(
    "scheme, k, params, runner",
    [
        ("naive", 8, {}, "run_naive"),
        ("max", 6, {}, "run_max_scheme"),
        ("max", 12, {}, "run_max_scheme"),
        ("binary_block", 8, {"rho_tilde": 0.5, "n_block": 16, "rho_nominal": 0.5},
         "run_binary_block"),
    ],
)
def test_literal_trials_read_consecutive_draws_of_the_cell_stream(
    monkeypatch, scheme, k, params, runner
):
    # row t of the cell's stacks is the t-th batch of gen_pairs' recipe drawn
    # in turn from the cell's one substream, and the runner on that batch
    # gives the cell's t-th estimate
    import corrcomm.schemes

    original = corrcomm.schemes._draw_stack
    rows = []

    def spy(*args):
        x, y = original(*args)
        rows.extend(zip(x.copy(), y.copy()))
        return x, y

    monkeypatch.setattr(corrcomm.schemes, "_draw_stack", spy)
    seen = spy_kernel(monkeypatch, scheme)
    config = SchemeConfig(scheme, k, params, use_batches=True)
    estimate_risk(config, 0.5, 100, SEED)
    rho_hats = np.concatenate([stack["rho_hat"] for stack in seen])
    needed = check_preconditions(config, 0.5)
    rng = substream(SEED, f"risk/literal/{scheme}/k={k}/rho=0.5")
    assert len(rows) == 100
    for (x, y), rho_hat in zip(rows, rho_hats):
        if SCHEMES[scheme].family == "binary":
            want_x = rng.integers(0, 2, size=needed) * 2.0 - 1.0
            agree = rng.random(needed) < 0.75
            want_y = np.where(agree, want_x, -want_x)
        else:
            want_x, z = rng.standard_normal((2, needed))
            want_y = 0.5 * want_x + math.sqrt(0.75) * z
        np.testing.assert_array_equal(x, want_x)
        np.testing.assert_array_equal(y, want_y)
        batch = PairBatch(x=x, y=y, family=SCHEMES[scheme].family)
        result = getattr(corrcomm.schemes, runner)(k, batch=batch, **params)
        assert result.rho_hat.hex() == rho_hat.item().hex()


SMALL_BUCKETS = {"rho_tilde": 0.5, "n_block": 16, "rho_nominal": 0.9, "guard_bits": 0}
PARTIAL_PREFIX = {"rho_tilde": 0.2, "n_block": 200, "rho_nominal": 0.9}


@pytest.mark.parametrize(
    "scheme, k, params, trials",
    [
        # 256 trials a stack, then 45
        ("naive", 64, {}, 301),
        # 16 trials a stack, then 13
        ("max", 10, {}, 301),
        ("local", 10, {"rho_nominal": 0.6}, 301),
        # 240 trials a stack, each holding several agreement counts
        ("two_way", 10, {"k1": 4}, 601),
        # 952k pairs a trial, past a stack's 2^14: one trial a stack
        ("binary_block", 12, PARTIAL_PREFIX, 100),
        # 195 blocks in 4-block buckets, the last of 3 blocks: anchors there
        # are rare (p ~ 3.6e-4 a trial), and trial 1369 of this cell has one;
        # 400 stacks of 5 trials, then 1
        ("binary_block", 8, SMALL_BUCKETS, 2001),
    ],
)
def test_literal_stacks_match_a_loop_of_the_runners(monkeypatch, scheme, k, params, trials):
    # every estimate, raw value and flag of a literal cell is, to the bit,
    # what the public runner gives on the cell's consecutive batches
    config = SchemeConfig(scheme, k, params, use_batches=True)
    needed = check_preconditions(config, 0.6)
    model = CorrelationModel(SCHEMES[scheme].family, 0.6)
    rng = substream(SEED, f"risk/literal/{scheme}/k={k}/rho=0.6")
    runs = [RUNNERS[scheme](k, batch=_draw_pairs(model, needed, rng), **params)
            for _ in range(trials)]
    seen = spy_kernel(monkeypatch, scheme)
    estimate_risk(config, 0.6, trials, SEED)

    per_stack = max(1, _STACK // needed)
    assert [len(stack["raw"]) for stack in seen[:-1]] == [per_stack] * (len(seen) - 1)
    assert 0 < len(seen[-1]["raw"]) <= per_stack
    assert trials % per_stack != 0 or per_stack == 1
    flags = [flag for flag in ("decode_failed", "exist_failed") if flag in runs[0].aux]
    for key in ("raw", *flags):
        want = np.array([run.aux[key] for run in runs])
        got = np.concatenate([stack[key] for stack in seen])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
    want = np.array([run.rho_hat for run in runs])
    assert np.concatenate([stack["rho_hat"] for stack in seen]).tobytes() == want.tobytes()
    if scheme == "two_way":
        assert all(len(set(stack["rho0_hat"])) >= 3 for stack in seen)
    if params is SMALL_BUCKETS:
        assert any(run.aux["anchor_block"] >= 192 and not run.aux["exist_failed"]
                   for run in runs)


def test_block_stack_decodes_in_the_short_last_bucket():
    # 195 blocks in 4-block buckets: the last bucket holds blocks 192-194,
    # so a stack's bucket window there must not count a fourth block. Alice
    # hits the target sum 8 first in block 192, 193 or 194 of each row
    layout = block_layout(0.5, 16, 0.9, guard_bits=0)
    rows = 60
    x = np.ones((rows, layout.samples_needed))  # blocks of sum 16
    anchors = 192 + np.arange(rows) % 3
    for t, anchor in enumerate(anchors):
        x[t, anchor * 16 : anchor * 16 + 4] = -1.0
    y = np.where(np.random.default_rng(SEED).random(x.shape) < 0.8, 1.0, -1.0)
    stack = corrcomm.schemes._block_stack(layout, 0.5, x, y)
    marked_last = 0
    for t in range(rows):
        batch = binary_batch(x[t], y[t])
        anchor, decoded, raw = block_scheme_by_full_scan(0.5, 16, batch, 0.9)
        assert stack["anchor_block"][t] == anchor == anchors[t]
        assert stack["decoded"][t] == (-1 if decoded is None else decoded)
        assert stack["raw"][t] == raw
        marked_last += decoded is not None and bool(layout.marks(y[t, -16:].sum()))
    assert marked_last > 0  # block 194 decoded, or marked beside the decode


@pytest.mark.parametrize("scheme", ["local", "two_way"])
def test_literal_cells_check_each_trials_width_against_the_budget(monkeypatch, scheme):
    # a prefix one bit past the budget is refused before Bob decodes, with
    # Transcript's message, naming the trials of the stack that sent it
    import corrcomm.schemes

    monkeypatch.setattr(corrcomm.schemes, "_local_prefix_bits", lambda k, rho: k + 1)
    trials = "0-15" if scheme == "local" else "0-99"
    with pytest.raises(ValueError,
                       match=f"^trials {trials}: transcript spends 11 bits, budget is 10$"):
        estimate_risk(SchemeConfig(scheme, 10, use_batches=True), 0.6, 100, SEED)
    batch = gen_pairs(CorrelationModel("gaussian", 0.6), 2**10, SEED)
    with pytest.raises(ValueError, match="^transcript spends 11 bits, budget is 10$"):
        if scheme == "local":
            run_local_scheme(10, 0.6, batch)
        else:
            run_two_way(10, 4, batch)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("quantum", 8)
    with pytest.raises(ValueError):
        SchemeConfig("naive", 0)
    # "yes" once constructed and ran the literal path
    for flag in ("yes", 1, None):
        with pytest.raises(ValueError, match="use_batches must be True or False"):
            SchemeConfig("max", 8, use_batches=flag)


def test_scheme_config_params_must_be_a_dict():
    # each once constructed, then failed in the cell checks with AttributeError
    for params in (None, [("k1", 3)], "k1=3"):
        with pytest.raises(ValueError, match="params must be a dict"):
            SchemeConfig("two_way", 10, params)


@pytest.mark.parametrize("use_batches", [False, True])
def test_the_value_of_rho_alone_picks_the_cell_stream(use_batches):
    # the stream's tag once read np.float64(0.5) and 0 where the CLI passes 0.5, 0.0
    config = SchemeConfig("naive", 8, use_batches=use_batches)
    for rho, same in ((0.5, np.float64(0.5)), (0.0, 0)):
        assert estimate_risk(config, same, 100, 1) == estimate_risk(config, rho, 100, 1)


def test_scheme_config_budget_must_be_an_integer():
    # a fractional budget used to run and report k = 8.5, True ran as k = 1
    for k in (0, 8.5, 8.0, True, math.inf, math.nan, "8"):
        with pytest.raises(ValueError, match=re.escape(
                f"bit budget must be an integer >= 1, got {k!r}")):
            SchemeConfig("two_way", k)
    config = SchemeConfig("naive", np.int64(8))
    assert type(config.k) is int
    assert estimate_risk(config, 0.5, 100, SEED) == estimate_risk(
        SchemeConfig("naive", 8), 0.5, 100, SEED
    )


def test_estimate_risk_requires_100_trials():
    for trials in (99, 150.5, 200.0, True, "200", math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"trials must be an integer >= 100, got {trials!r}")):
            estimate_risk(SchemeConfig("naive", 8), 0.0, trials, SEED)
    report = estimate_risk(SchemeConfig("naive", 8), 0.0, np.int64(200), SEED)
    assert type(report.trials) is int
    assert report == estimate_risk(SchemeConfig("naive", 8), 0.0, 200, SEED)


def test_estimate_risk_deterministic():
    config = SchemeConfig("naive", 32)
    a = estimate_risk(config, 0.2, 500, SEED)
    b = estimate_risk(config, 0.2, 500, SEED)
    assert a == b
    c = estimate_risk(config, 0.2, 500, SEED + 1)
    assert a.mse != c.mse


def test_estimate_risk_zero_risk_cell():
    # at rho = 1 every product is +1, so the naive estimate is exact
    report = estimate_risk(SchemeConfig("naive", 16), 1.0, 200, SEED)
    assert report.mse == 0.0
    assert report.bias == 0.0


def test_estimate_risk_matches_exact_naive_risk():
    report = estimate_risk(SchemeConfig("naive", 100), 0.0, 100_000, SEED)
    assert abs(report.mse - 0.01) < 0.05 * 0.01
    assert report.mse == pytest.approx(report.bias**2 + report.variance, abs=1e-12)
    assert report.ci95_halfwidth > 0


def test_estimate_risk_batch_and_fast_validate_alike():
    for use_batches in (False, True):
        config = SchemeConfig(
            "two_way", 8, {"k1": 9}, use_batches=use_batches
        )
        with pytest.raises(ValueError):
            estimate_risk(config, 0.0, 200, SEED)


# ----------------------------------------------------------------------
# chunked fast samplers and the risk statistics
# ----------------------------------------------------------------------

# One short of a chunk, one past it, and twelve chunks with a remainder
# that is no multiple of any SIMD width.
PIN_TRIALS = (8191, 8193, 100_003)
PIN_POOL_BITS = (1, 8, 20, 64, 600)
PIN_RHOS = (-0.364, 0.0, 0.6, 0.9)
# Recorded by running test_fast_sampler_streams_are_pinned's code on the
# samplers as they were before they drew in chunks, each phase of a cell in
# one call: chunking moves no byte of any estimate, flag or stream.
STREAM_DIGESTS = {
    "naive": "11b40d18b505c7e710a628b9001907a6260f8923b8e6fb757fbd1bdb6552ba03",
    "max": "98aace721ce89d2bba7138c1fa8bc2bbe860fa4e6867db45e3e31447099fc45f",
    "local": "0eaafb39360cbf6b75d42c98677045fe6ed11d94b7ab2c6417d161b9723f1fc3",
    "two_way": "4178b5c17d5f36e9b4c75eb3fe71cae0e986b2b240408d9641b251b349379446",
}


def pinned_cells(scheme):
    for bits in PIN_POOL_BITS:
        for rho in PIN_RHOS:
            if scheme == "two_way":
                # at k1 = 20 three agreement counts at each end clip to the
                # same nominal, +-0.95, and share one group
                for k1 in (3, 20):
                    yield k1 + bits, rho, {"k1": k1}
            else:
                yield bits, rho, {"rho_nominal": rho} if scheme == "local" else {}


@pytest.mark.parametrize("scheme", sorted(STREAM_DIGESTS))
def test_fast_sampler_streams_are_pinned(scheme):
    digest = hashlib.sha256()
    for trials in PIN_TRIALS:
        for index, (k, rho, params) in enumerate(pinned_cells(scheme)):
            rng = np.random.default_rng([trials, index])
            rho_hats, aux = SCHEMES[scheme].sample(k, rho, trials, rng, params)
            digest.update(rho_hats.tobytes())
            for key in ("raw", "decode_failed"):
                if key in aux:
                    digest.update(aux[key].tobytes())
            digest.update(rng.random(4).tobytes())  # where the cell left the stream
    assert digest.hexdigest() == STREAM_DIGESTS[scheme]


SAMPLERS = {
    "naive": "_naive_trials",
    "max": "_max_trials",
    "local": "_local_trials",
    "two_way": "_two_way_trials",
    "binary_block": "_block_trials",
}
STATISTICS_CELLS = [
    (SchemeConfig("naive", 12), 0.3, 20_003),
    (SchemeConfig("max", 12), 0.6, 20_003),
    (SchemeConfig("local", 12), 0.6, 20_003),
    (SchemeConfig("two_way", 12), 0.6, 20_003),
    (SchemeConfig("binary_block", 12, {"rho_tilde": 0.2, "n_block": 200,
                                       "rho_nominal": 0.9}), 0.6, 20_003),
    (SchemeConfig("max", 6, use_batches=True), 0.6, 301),
]


@pytest.mark.parametrize("config, rho, trials", STATISTICS_CELLS)
def test_risk_statistics_are_the_numpy_reductions(monkeypatch, config, rho, trials):
    # every float of the report is what ndarray.mean, var and std give on
    # the cell's estimates and raw values, to the bit
    if config.use_batches:
        seen = spy_kernel(monkeypatch, config.scheme)
    else:
        seen = []
        original = getattr(corrcomm.schemes, SAMPLERS[config.scheme])

        def spy(*args, **kwargs):
            seen.append(original(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(corrcomm.schemes, SAMPLERS[config.scheme], spy)
    report = estimate_risk(config, rho, trials, SEED)
    if config.use_batches:
        rho_hats, raw = (np.concatenate([stack[key] for stack in seen])
                         for key in ("rho_hat", "raw"))
        aux = {"raw": raw}
    else:
        ((rho_hats, aux),) = seen
    raw, root = aux["raw"], math.sqrt(trials)
    assert rho_hats.size == raw.size == trials
    errors = rho_hats - rho
    raw_sq = (raw - rho) ** 2
    expected = {
        "mse": (errors**2).mean(),
        "bias": errors.mean(),
        "variance": rho_hats.var(),
        "ci95_halfwidth": 1.96 * (errors**2).std(ddof=1) / root,
        "raw_mean": raw.mean(),
        "raw_mse": raw_sq.mean(),
        "raw_se_mean": raw.std(ddof=1) / root,
        "raw_mse_ci95": 1.96 * raw_sq.std(ddof=1) / root,
    }
    for flag in ("decode_failed", "exist_failed"):
        if flag in aux:
            expected[flag.removesuffix("ed") + "_rate"] = aux[flag].mean()
    got = {**dataclasses.asdict(report), **report.extras}
    assert {key: float(got[key]).hex() for key in expected} == {
        key: float(value).hex() for key, value in expected.items()
    }
    assert set(report.extras) <= set(expected)


@pytest.mark.parametrize("scheme", ["naive", "max", "local", "two_way"])
def test_fast_cell_holds_few_trial_length_arrays(scheme):
    # its estimates, its raw values and one scratch array for the
    # statistics, besides flags and chunk-sized temporaries; drawing each
    # phase of the cell in one call held 6 to 8 such arrays (45.8-59.1 MiB)
    trials = 10**6
    tracemalloc.start()
    try:
        estimate_risk(SchemeConfig(scheme, 12), 0.6, trials, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * trials
