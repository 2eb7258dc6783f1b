"""Protocol runners, their vectorized twins, and the risk harness.

The batch runners execute each protocol literally on sampled pairs; the
fast samplers draw the same sufficient statistics directly. The two forms
are compared at 3-sigma throughout, so a distributional mismatch in either
one fails loudly.
"""

import math

import numpy as np
import pytest

from corrcomm import (
    CorrelationModel,
    EstimateResult,
    Message,
    PairBatch,
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
    var_max_normal,
)
from corrcomm.schemes import _binom_pmf

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
    assert expected_max_normal(2) == pytest.approx(
        1.0 / math.sqrt(math.pi), abs=1e-12
    )
    assert var_max_normal(2) == pytest.approx(1.0 - 1.0 / math.pi, abs=1e-10)


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
    # pools stop at the fast samplers' 2^960, where the variance still
    # tracks pi^2 / (12 ln n)
    with pytest.raises(ValueError, match="2\\^960"):
        expected_max_normal(2**961)
    assert var_max_normal(2**960) > 0


@pytest.mark.parametrize(
    "n, mean_hex, var_hex",
    [
        (2, "0x1.20dd750429b6ep-1", "0x1.5d067c91b1bc0p-1"),
        (1024, "0x1.9fc650b4bd5f9p+1", "0x1.f7f15fb84a500p-4"),
        (2**20, "0x1.37d3aa1918eb6p+2", "0x1.f61f0e9f82400p-5"),
    ],
)
def test_max_normal_quadrature_is_pinned(n, mean_hex, var_hex):
    # exact floats, so a change in the integrand's arithmetic shows in the
    # last bit even where it stays inside the quadrature tolerance
    assert expected_max_normal(n) == float.fromhex(mean_hex)
    assert var_max_normal(n) == float.fromhex(var_hex)


@pytest.mark.parametrize("n", [16, 32, 128, 200, 1000])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.55, 0.95])
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


# ----------------------------------------------------------------------
# transcript containers
# ----------------------------------------------------------------------

def test_message_validation():
    Message("alice", "0101", 4)
    with pytest.raises(ValueError):
        Message("carol", "01", 2)
    with pytest.raises(ValueError):
        Message("alice", "01", 3)
    with pytest.raises(ValueError):
        Message("bob", "021", 3)


def test_transcript_budget_and_order():
    msg = Message("alice", "01", 2)
    t = Transcript(budget=4, messages=(msg, Message("bob", "1", 1)))
    assert t.bits_used == 3
    with pytest.raises(ValueError):
        Transcript(budget=2, messages=(msg, Message("bob", "1", 1)))
    with pytest.raises(ValueError):
        Transcript(budget=4, messages=(Message("bob", "1", 1),))
    with pytest.raises(ValueError):
        Transcript(budget=0, messages=())


def test_estimate_result_validation():
    with pytest.raises(ValueError):
        EstimateResult(rho_hat=1.5, bits_used=1)
    t = Transcript(budget=4, messages=(Message("alice", "01", 2),))
    with pytest.raises(ValueError):
        EstimateResult(rho_hat=0.0, bits_used=3, transcript=t)
    ok = EstimateResult(rho_hat=0.0, bits_used=2, transcript=t)
    assert ok.bits_used == ok.transcript.bits_used


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
    assert local.aux["m_bits"] == 6
    assert local.rho_hat == top.rho_hat
    assert not local.aux["decode_failed"]


def test_local_scheme_prefix_width():
    batch = gen_pairs(CorrelationModel("gaussian", 0.6), 2**18, SEED)
    result = run_local_scheme(18, 0.6, batch)
    # ceil(18 * (1 - 0.36) * 1.15) = 14 of the 18 index bits
    assert result.aux["m_bits"] == 14
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
    with pytest.raises(ValueError):
        block_layout(0.5, 120, 0.0)  # needs > 1e8 samples


def test_block_scheme_perfect_correlation():
    # three handmade blocks; the third has the target sum 2 and y = x
    n, m = 4, 21  # layout at (0.5, 4, 0.0)
    x = np.ones(n * m)
    x[4:8] = [1, 1, -1, -1]
    x[8:12] = [1, 1, 1, -1]
    batch = binary_batch(x, x.copy())
    result = run_binary_block(5, 0.5, n, batch)
    assert result.aux["anchor_block"] == 2
    assert result.aux["decoded"] == 2
    assert not result.aux["exist_failed"]
    assert result.rho_hat == 1.0


def test_block_scheme_exist_failure_falls_back():
    n, m = 4, 21
    x = np.ones(n * m)  # every block sums to 4, never 2
    y = x.copy()
    y[1] = -1.0  # block-1 correlation 0.5
    result = run_binary_block(5, 0.5, n, binary_batch(x, y))
    assert result.aux["exist_failed"]
    assert result.rho_hat == pytest.approx(0.5, abs=0)


def test_block_scheme_budget_and_family():
    batch = gen_pairs(CorrelationModel("binary", 0.0), 21 * 4, SEED)
    with pytest.raises(ValueError):
        run_binary_block(4, 0.5, 4, batch)  # needs 5 bits
    gauss = gen_pairs(CorrelationModel("gaussian", 0.0), 21 * 4, SEED)
    with pytest.raises(ValueError):
        run_binary_block(5, 0.5, 4, gauss)


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
    # wrap in 2**(k - k1); at the capped nominal the suffix is 62 bits
    assert check_preconditions(SchemeConfig("max", 960), 0.0) == 2**960
    assert check_preconditions(
        SchemeConfig("two_way", 73, {"k1": np.int64(3)}), 0.0
    ) == 3 + 2**70


def test_check_preconditions_rejects_bad_cells():
    with pytest.raises(ValueError):
        check_preconditions(SchemeConfig("naive", 8), 1.5)
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
    # the fast local sampler's suffix k - m must fit in 62 bits: local at its
    # nominal, two_way at the capped nominal its phase 1 reaches
    with pytest.raises(ValueError, match="suffix width 68"):
        check_preconditions(SchemeConfig("local", 500), 0.5)
    with pytest.raises(ValueError, match="suffix width 63"):
        check_preconditions(SchemeConfig("two_way", 80), 0.95)
    with pytest.raises(ValueError, match="suffix width 852"):
        check_preconditions(SchemeConfig("two_way", 963, {"k1": np.int64(3)}), 0.0)


def test_check_preconditions_resolves_params():
    # unknown keys fail by name, whether misspelt or another scheme's
    with pytest.raises(ValueError, match="c_bit"):
        check_preconditions(SchemeConfig("local", 8, {"c_bit": 0.2}), 0.0)
    with pytest.raises(ValueError, match="rho_nominal"):
        check_preconditions(SchemeConfig("two_way", 8, {"rho_nominal": 0.5}), 0.0)
    with pytest.raises(ValueError, match="c_bits"):
        check_preconditions(SchemeConfig("local", 8, {"c_bits": True}), 0.0)
    with pytest.raises(ValueError, match="c_threshold"):
        check_preconditions(SchemeConfig("local", 8, {"c_threshold": math.inf}), 0.0)
    # counts must be integers
    block = {"rho_tilde": 0.5, "n_block": 32}
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

    calls = []
    for name in (runner, sampler):
        original = getattr(corrcomm.schemes, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(corrcomm.schemes, name, spy)
    estimate_risk(SchemeConfig(scheme, k, params, use_batches=True), 0.5, 100, SEED)
    estimate_risk(SchemeConfig(scheme, k, params), 0.5, 100, SEED)
    assert calls.count(runner) == 100
    assert calls.count(sampler) == 1


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("quantum", 8)
    with pytest.raises(ValueError):
        SchemeConfig("naive", 0)


def test_estimate_risk_requires_100_trials():
    with pytest.raises(ValueError):
        estimate_risk(SchemeConfig("naive", 8), 0.0, 99, SEED)


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
