"""Acceptance gate: one test per shipping criterion.

Each test registers a pass/fail line on the terminal scoreboard (see
conftest) before asserting, so a red criterion still reports itself.
Monte Carlo criteria run at fixed seeds chosen once; the 3-sigma bands
are statistical, so a seed change may need a fresh margin check.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import child_env, record_criterion
from corrcomm import (
    FiniteJoint,
    SchemeConfig,
    block_layout,
    CorrelationModel,
    binary_pair_family,
    cosine_prior,
    estimate_risk,
    expected_max_normal,
    fisher_fd,
    gen_pairs,
    max_scheme_mse_exact,
    naive_mse_exact,
    search_max_ratio,
    shift_correlation,
    shift_params,
    sweep,
)
from corrcomm.rng import substream

SEED = 2718
TRIALS = 100_000
LN2 = math.log(2.0)


def test_criterion_01_naive_risk_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for k in (64, 128):
        for rho in (0.0, 0.5, 0.9):
            report = estimate_risk(SchemeConfig("naive", k), rho, TRIALS, SEED)
            target = naive_mse_exact(k, rho)
            worst = max(worst, abs(report.mse - target) / target)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 60.0
    record_criterion(
        1,
        "naive risk within 5% of (1-rho^2)/k",
        ok,
        f"worst rel err {worst:.3%}, {elapsed:.1f}s",
    )
    assert worst <= 0.05
    assert elapsed < 60.0


def test_criterion_02_pointer_scheme_is_unbiased():
    worst = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        report = estimate_risk(SchemeConfig("max", 14), rho, TRIALS, SEED)
        dev = abs(report.extras["raw_mean"] - rho) / report.extras["raw_se_mean"]
        worst = max(worst, dev)
    ok = worst <= 3.0
    record_criterion(2, "pointer estimate unbiased at k=14", ok, f"worst {worst:.2f} sigma")
    assert worst <= 3.0


def test_criterion_03_pointer_scheme_variance_oracle():
    start = time.perf_counter()
    worst = 0.0
    trend_ok = True
    band = None
    for rho in (0.0, 0.5):
        k_mse_path = []
        for k in (10, 14, 18):
            report = estimate_risk(SchemeConfig("max", k), rho, TRIALS, SEED)
            mse = report.extras["raw_mse"]
            se = report.extras["raw_mse_ci95"] / 1.96
            worst = max(worst, abs(mse - max_scheme_mse_exact(k, rho)) / se)
            k_mse_path.append(k * mse)
            if (k, rho) == (18, 0.0):
                band = k * mse * 2.0 * LN2
        trend_ok = trend_ok and all(
            later <= earlier for earlier, later in zip(k_mse_path, k_mse_path[1:])
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and trend_ok and 1.0 <= band <= 1.35 and elapsed < 600.0
    record_criterion(
        3,
        "pointer MSE matches quadrature oracle",
        ok,
        f"worst {worst:.2f} sigma, k*mse*2ln2 = {band:.3f}, {elapsed:.0f}s",
    )
    assert worst <= 3.0
    assert trend_ok
    assert 1.0 <= band <= 1.35
    assert elapsed < 600.0


def test_criterion_04_single_shot_pointer_with_prefix():
    k, rho = 18, 0.6
    report = estimate_risk(
        SchemeConfig("local", k, {"rho_nominal": rho}), rho, TRIALS, SEED
    )
    ratio = report.mse / max_scheme_mse_exact(k, rho)
    fail_rate = report.extras["decode_fail_rate"]
    mse_ok = ratio <= 0.8
    decode_ok = fail_rate < 0.05
    record_criterion(
        4,
        "prefix scheme beats pointer scheme at nominal 0.6",
        mse_ok and decode_ok,
        f"mse ratio {ratio:.3f} (<= 0.8: {mse_ok}), "
        f"decode failure {fail_rate:.3f} (< 0.05: {decode_ok})",
    )
    assert mse_ok
    # Known red: the marking threshold is calibrated against the
    # asymptotic argmax location sqrt(2 k ln 2), which at k=18 sits ~9%
    # above the true expected maximum. The winner then clears the
    # threshold only about half the time, so the decode-failure clause
    # is unattainable at desk-scale k with the stated defaults. The
    # calibration is not the only obstacle: the prefix is m = 14 bits, so
    # 15 other indices share the winner's bucket, and no threshold brings
    # decode failure under about 0.35 (best t ~ 2.2 against the default
    # 2.70). The fallback output keeps the MSE clause green.
    assert decode_ok


def test_criterion_05_block_scheme_prefers_weak_anchors():
    budget = 16
    cells = [(0.5, 32, 20_000), (0.25, 128, 20_000), (0.1, 1000, 4_000)]
    rows = []
    for rho_tilde, n_block, trials in cells:
        assert block_layout(rho_tilde, n_block, 0.0).index_bits <= budget
        report = estimate_risk(
            SchemeConfig(
                "binary_block",
                budget,
                {"rho_tilde": rho_tilde, "n_block": n_block},
            ),
            0.0,
            trials,
            SEED,
        )
        rows.append((report.mse, report.ci95_halfwidth))
    trend_ok = all(
        later_mse <= mse + ci + later_ci
        for (mse, ci), (later_mse, later_ci) in zip(rows, rows[1:])
    )
    record_criterion(
        5,
        "block MSE nonincreasing as the anchor weakens",
        trend_ok,
        "mse " + " -> ".join(f"{mse:.4f}" for mse, _ in rows),
    )
    assert trend_ok


def test_criterion_06_ratio_search_saturates_the_square():
    start = time.perf_counter()
    result = search_max_ratio(
        FiniteJoint.binary_symmetric(0.6),
        r_max=3,
        u_max=3,
        restarts=10_000,
        seed=SEED,
        ceiling=0.36 + 1e-9,
    )
    elapsed = time.perf_counter() - start
    ok = (
        not result.violations
        and result.max_ratio_seen <= 0.36 + 1e-9
        and result.best_ratio >= 0.34
        and elapsed < 300.0
    )
    record_criterion(
        6,
        "cross/own ratio capped by rho^2 and nearly attained",
        ok,
        f"best {result.best_ratio:.4f} of 0.36, "
        f"{result.evaluations} specs, {elapsed:.0f}s",
    )
    assert result.violations == []
    assert result.max_ratio_seen <= 0.36 + 1e-9
    assert result.best_ratio >= 0.34
    assert elapsed < 300.0


def test_criterion_07_tilted_sources_contract():
    outcome = sweep("tilted_contraction", 10_000, SEED, rho=0.7)
    ok = outcome.ok and outcome.checks == 10_000
    record_criterion(
        7,
        "contraction holds under product tilts",
        ok,
        f"worst margin {outcome.stats['worst_margin']:.2e}",
    )
    assert outcome.violations == []
    assert outcome.checks == 10_000


def test_criterion_08_binary_input_contraction():
    outcome = sweep("binary_input_contraction", 10_000, SEED)
    ok = outcome.ok and outcome.checks == 10_000
    record_criterion(
        8,
        "Hellinger coefficient bounds binary-input channels",
        ok,
        f"worst margin {outcome.stats['worst_margin']:.2e}",
    )
    assert outcome.violations == []
    assert outcome.checks == 10_000


def test_criterion_09_interactive_chain():
    outcome = sweep("interactive_chain", 201, SEED, rhos=(0.3, 0.6, 0.9))
    ok = (
        outcome.ok
        and outcome.checks >= 200
        and outcome.stats["worst_margin"] >= -1e-9
        and outcome.stats["one_way_worst_gap"] <= 1e-9
    )
    record_criterion(
        9,
        "divergence chain through interactive transcripts",
        ok,
        f"{outcome.checks} specs, worst margin {outcome.stats['worst_margin']:.2e}, "
        f"one-way gap {outcome.stats['one_way_worst_gap']:.2e}",
    )
    assert outcome.violations == []
    assert outcome.checks >= 200
    assert outcome.stats["worst_margin"] >= -1e-9
    assert outcome.stats["one_way_worst_gap"] <= 1e-9


def test_criterion_10_product_sources_do_not_beat_coordinates():
    outcome = sweep("tensorization", 500, SEED, rho1=0.4, rho2=0.8)
    ok = outcome.ok and outcome.checks == 500
    record_criterion(
        10,
        "product-source ratio capped by the worst coordinate",
        ok,
        f"worst margin {outcome.stats['worst_margin']:.2e} at slack 0.02",
    )
    assert outcome.violations == []
    assert outcome.checks == 500


def test_criterion_11_correlation_shift_cost():
    outcome = sweep("shift_reduction", 100, SEED, rho0=0.25, rho1=0.5)
    mc_ok = True
    details = []
    n = 1_000_000
    for family in ("binary", "gaussian"):
        params = shift_params(family, 0.25, 0.5)
        base = gen_pairs(CorrelationModel(family, params.input_rho), n, SEED)
        shifted = shift_correlation(base, params, SEED)
        se_mean = 1.0 / math.sqrt(n)
        corr = shifted.empirical_correlation()
        se_corr = (1.0 - 0.25) / math.sqrt(n)
        family_ok = (
            abs(float(shifted.x.mean())) < 3 * se_mean
            and abs(float(shifted.y.mean())) < 3 * se_mean
            and abs(corr - 0.5) < 3 * se_corr
        )
        if family == "gaussian":
            se_var = math.sqrt(2.0 / n)
            family_ok = family_ok and (
                abs(float(shifted.x.var()) - 1.0) < 3 * se_var
                and abs(float(shifted.y.var()) - 1.0) < 3 * se_var
            )
        mc_ok = mc_ok and family_ok
        details.append(f"{family} corr {corr:.4f}")
    ok = outcome.ok and mc_ok
    record_criterion(
        11,
        "shift coupling: exact transcript bound plus MC moments",
        ok,
        f"worst margin {outcome.stats['worst_margin']:.2e}; " + ", ".join(details),
    )
    assert outcome.violations == []
    assert mc_ok


def test_criterion_12_sign_testing_mixture_chain():
    outcome = sweep("gap_hamming", 100, SEED, n=8, c=1.0)
    ok = outcome.ok and outcome.checks == 101
    record_criterion(
        12,
        "hypothesis-bit information chain at n=8",
        ok,
        f"worst margin {outcome.stats['worst_margin']:.2e}, "
        f"majority implied budget {outcome.stats['majority']['implied_k_lower']:.3f}",
    )
    assert outcome.violations == []
    assert outcome.stats["worst_margin"] >= -1e-9


def test_criterion_13_fisher_information_oracle():
    family = binary_pair_family()
    worst = 0.0
    for rho in (0.0, 0.5, 0.9):
        target = 1.0 / (1.0 - rho * rho)
        rel = abs(fisher_fd(family, rho, eps=1e-3) - target) / target
        worst = max(worst, rel)
    prior_exact = all(
        cosine_prior(0.0, delta).i_lambda == (math.pi / delta) ** 2
        for delta in (0.05, 0.2, 1.0)
    )
    ok = worst <= 1e-4 and prior_exact
    record_criterion(
        13,
        "finite-difference Fisher matches 1/(1-rho^2)",
        ok,
        f"worst rel err {worst:.2e}; prior curvature exact: {prior_exact}",
    )
    assert worst <= 1e-4
    assert prior_exact


def test_criterion_14_max_normal_quadrature_vs_mc():
    small_err = abs(expected_max_normal(2) - 1.0 / math.sqrt(math.pi))
    n = 2**10
    rng = substream(97, "acceptance/max-normal-oracle")
    total = 0.0
    draws = 10_000_000
    chunk = 1_000_000
    for _ in range(draws // chunk):
        u = rng.random(chunk)
        total += float(ndtri(u ** (1.0 / n)).sum())
    mc_err = abs(expected_max_normal(n) - total / draws)
    ok = small_err <= 1e-6 and mc_err <= 1e-3
    record_criterion(
        14,
        "expected maximum: quadrature vs closed form and MC",
        ok,
        f"n=2 err {small_err:.1e}, n=1024 MC gap {mc_err:.1e}",
    )
    assert small_err <= 1e-6
    assert mc_err <= 1e-3


def test_criterion_15_cli_outputs_are_byte_identical(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "scheme": "naive",
                "k_grid": [16, 64],
                "rho_grid": [0.0, 0.5],
                "trials": 300,
                "seed": 11,
            }
        )
    )
    # (argv, expected exit code); the selftest feeds the verifier a
    # mislabeled instance and expects exit 1
    commands = [
        (["simulate", "--config", str(config), "--format", "json"], 0),
        (["bounds", "--k", "8,32", "--rho", "0,0.9"], 0),
        (["maxnormal", "--n", "2,16,1024"], 0),
        (["verify", "--suite", "tilted", "--draws", "300", "--seed", "5", "--format", "json"], 0),
        (["verify", "--selftest", "--format", "json"], 1),
    ]
    # Two fresh interpreters per command run the CLI module that the
    # console script wraps; the property under test does not need the
    # script installed. Expected exit codes and non-empty output keep two
    # identical crashes from counting as stable.
    env = child_env()
    stable = True
    for argv, expected_code in commands:
        cmd = [sys.executable, "-m", "corrcomm.cli", *argv]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        stable = stable and (
            first.returncode == expected_code
            and first.stdout != b""
            and first.stdout == second.stdout
            and first.returncode == second.returncode
        )
    record_criterion(
        15,
        "CLI output byte-identical across runs",
        stable,
        f"{len(commands)} commands compared",
    )
    assert stable
