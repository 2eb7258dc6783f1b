"""One rule for every count a public function takes.

A count is an integer, not a bool, at or above its least value; anything
else fails at the boundary with ValueError("<name> must be an integer >= m,
got v"), before numpy sees it. The counts of gen_pairs, binary_to_gaussian,
majority_channel, sweep, SchemeConfig, estimate_risk and the CLI's trials
get a non-integer, True and least - 1 in their own tests.
"""

import re

import numpy as np
import pytest

from corrcomm import (
    CorrelationModel,
    FiniteJoint,
    Transcript,
    binary_symmetric_product,
    block_layout,
    cosine_prior,
    expected_max_normal,
    gap_hamming_demo,
    gen_pairs,
    max_scheme_mse_exact,
    naive_mse_exact,
    random_spec,
    risk_bounds,
    run_naive,
    search_max_ratio,
    substream,
    var_max_normal,
)

SEED = 29
SOURCE = FiniteJoint.binary_symmetric(0.5)
BATCH = gen_pairs(CorrelationModel("binary", 0.5), 64, SEED)

# function.count -> (the call with that count set to v, its name, least value)
COUNTS = {
    "risk_bounds.k": (lambda v: risk_bounds(v, 0.5), "bit budget", 1),
    "expected_max_normal.n": (expected_max_normal, "pool size", 1),
    "var_max_normal.n": (var_max_normal, "pool size", 1),
    "naive_mse_exact.k": (lambda v: naive_mse_exact(v, 0.5), "bit budget", 1),
    "max_scheme_mse_exact.k": (lambda v: max_scheme_mse_exact(v, 0.5), "bit budget", 1),
    "run_naive.k": (lambda v: run_naive(v, BATCH), "bit budget", 1),
    "block_layout.n_block": (lambda v: block_layout(0.5, v, 0.0), "block size", 2),
    "block_layout.guard_bits": (lambda v: block_layout(0.5, 16, 0.0, v), "guard bits", 0),
    "Transcript.budget": (lambda v: Transcript(v, ()), "bit budget", 1),
    "CosinePrior.sample.n": (
        lambda v: cosine_prior(0.0, 0.5).sample(v, substream(SEED, "counts")),
        "sample count", 1),
    "binary_symmetric_product.n": (
        lambda v: binary_symmetric_product(0.5, v), "coordinate count", 1),
    "gap_hamming_demo.n": (lambda v: gap_hamming_demo(v, (np.eye(2),)), "coordinate count", 1),
    "random_spec.r_max": (
        lambda v: random_spec(SOURCE, v, 3, substream(SEED, "counts")), "r_max", 1),
    "random_spec.u_max": (
        lambda v: random_spec(SOURCE, 3, v, substream(SEED, "counts")), "u_max", 2),
    "search_max_ratio.restarts": (
        lambda v: search_max_ratio(SOURCE, restarts=v, ascent_steps=2), "restarts", 0),
    "search_max_ratio.ascent_steps": (
        lambda v: search_max_ratio(SOURCE, restarts=2, ascent_steps=v), "ascent_steps", 0),
}


@pytest.mark.parametrize("bad", ["2.5", "True", "least-1"])
@pytest.mark.parametrize("count", list(COUNTS))
def test_a_count_is_an_integer_at_or_above_its_least(count, bad):
    call, name, least = COUNTS[count]
    value = {"2.5": 2.5, "True": True, "least-1": least - 1}[bad]
    message = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)
