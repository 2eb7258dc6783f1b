"""Information measures against hand-derived and closed-form oracles.

Every expected value here was frozen from an independent derivation
(closed forms, or direct summation over tiny alphabets) before being
compared to the library.
"""

import math

import numpy as np
import pytest

from corrcomm import (
    CosinePrior,
    FiniteJoint,
    bayes_cr_bound,
    binary_entropy,
    binary_pair_family,
    cond_mutual_info,
    cosine_prior,
    entropy,
    fisher_fd,
    kl,
    mutual_info,
    risk_bounds,
)
from corrcomm.rng import substream

# I(X;Y) for the +-1 symmetric pair at rho = 0.5: 1 - h(0.25).
MI_HALF = 1.0 - binary_entropy(0.25)


def random_joint(rng, shape):
    flat = rng.dirichlet(np.ones(int(np.prod(shape))))
    return flat.reshape(shape)


# ----------------------------------------------------------------------
# pmf containers
# ----------------------------------------------------------------------

def test_binary_symmetric_table_is_exact():
    j = FiniteJoint.binary_symmetric(0.5)
    np.testing.assert_allclose(j.probs, [[0.375, 0.125], [0.125, 0.375]], atol=0)
    np.testing.assert_allclose(j.marginal_x(), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(j.marginal_y(), [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("rho", [-1.5, 1.0001, 2.0, True, "0.5"])
def test_binary_symmetric_rejects_bad_correlation(rho):
    with pytest.raises(ValueError):
        FiniteJoint.binary_symmetric(rho)


def test_joint_validation():
    with pytest.raises(ValueError):
        FiniteJoint(np.array([0.5, 0.5]))  # not 2-D
    with pytest.raises(ValueError):
        FiniteJoint(np.array([[0.7, 0.4], [-0.1, 0.0]]))  # negative
    with pytest.raises(ValueError):
        FiniteJoint(np.array([[0.7, 0.2], [0.2, 0.2]]))  # sums to 1.3


def test_product_factorizes_entropy_and_mi():
    a = FiniteJoint.binary_symmetric(0.3)
    b = FiniteJoint.binary_symmetric(0.8)
    prod = a.product(b)
    assert prod.probs.shape == (4, 4)
    assert math.isclose(
        entropy(prod.probs), entropy(a.probs) + entropy(b.probs), abs_tol=1e-12
    )
    assert math.isclose(
        mutual_info(prod), mutual_info(a) + mutual_info(b), abs_tol=1e-12
    )


def test_from_product_has_zero_mi():
    j = FiniteJoint.from_product([0.2, 0.8], [0.5, 0.25, 0.25])
    assert j.probs.shape == (2, 3)
    assert mutual_info(j) == pytest.approx(0.0, abs=1e-15)


# ----------------------------------------------------------------------
# entropies and divergences
# ----------------------------------------------------------------------

def test_entropy_uniform_and_point_mass():
    assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0


def test_kl_basics():
    assert kl([0.5, 0.5], [0.5, 0.5]) == 0.0
    # D(Bern(3/4) || Bern(1/2)) = 1 - h(1/4), which also equals the
    # mutual information of the symmetric pair at rho = 1/2.
    assert kl([0.75, 0.25], [0.5, 0.5]) == pytest.approx(MI_HALF, abs=1e-12)
    assert kl([0.5, 0.5], [1.0, 0.0]) == math.inf
    with pytest.raises(ValueError, match="shape mismatch"):
        kl([0.5, 0.5], [0.25, 0.25, 0.5])


def test_kl_nonnegative_on_random_pairs():
    rng = substream(11, "test/kl")
    for _ in range(50):
        size = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(size))
        q = rng.dirichlet(np.ones(size))
        assert kl(p, q) >= 0.0


def test_mutual_info_symmetric_pair():
    assert mutual_info(FiniteJoint.binary_symmetric(0.5)) == pytest.approx(
        0.18872187554086717, abs=1e-15
    )
    assert mutual_info(FiniteJoint.binary_symmetric(0.0)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert mutual_info(FiniteJoint.binary_symmetric(1.0)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert mutual_info(FiniteJoint.binary_symmetric(-0.5)) == pytest.approx(
        mutual_info(FiniteJoint.binary_symmetric(0.5)), abs=1e-15
    )


def test_mutual_info_accepts_joint_or_array():
    j = FiniteJoint.binary_symmetric(0.7)
    assert mutual_info(j) == mutual_info(j.probs)


def test_cmi_reduces_to_mi_for_independent_conditioner():
    j = FiniteJoint.binary_symmetric(0.6).probs
    pz = np.array([0.3, 0.7])
    j3 = j[:, :, None] * pz[None, None, :]
    assert cond_mutual_info(j3) == pytest.approx(mutual_info(j), abs=1e-12)


def test_cmi_chain_rule_on_random_joints():
    # I(X; Y, Z) = I(X; Z) + I(X; Y | Z) on dense random tables.
    rng = substream(12, "test/cmi")
    for _ in range(25):
        j3 = random_joint(rng, (3, 2, 4))
        lhs = mutual_info(j3.reshape(3, 8))
        rhs = mutual_info(j3.sum(axis=1)) + cond_mutual_info(j3)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert cond_mutual_info(j3) >= -1e-12


def test_cmi_requires_3d():
    with pytest.raises(ValueError):
        cond_mutual_info(FiniteJoint.binary_symmetric(0.5).probs)


@pytest.mark.parametrize(
    "table, message",
    [
        (np.full((2, 2), 0.25), "3-way"),
        (np.array([[[0.5, 0.25]], [[0.5, -0.25]]]), "negative"),
        (np.full((2, 2, 2), 0.25), "sums to 2.0"),
        (np.zeros((2, 0, 2)), "nonempty"),
    ],
    ids=["ndim", "negative", "sum", "empty"],
)
def test_cmi_rejects_invalid_tables(table, message):
    with pytest.raises(ValueError, match=message):
        cond_mutual_info(table)


@pytest.mark.parametrize(
    "check, table",
    [
        (FiniteJoint, np.full((2, 2), math.nan)),
        (entropy, [math.nan, math.nan]),
        (cond_mutual_info, np.full((2, 2, 2), math.nan)),
    ],
    ids=["FiniteJoint", "entropy", "cond_mutual_info"],
)
def test_pmf_checks_reject_nan(check, table):
    # a nan total once passed the "sums to 1 within atol" comparison
    with pytest.raises(ValueError, match="sums to nan"):
        check(table)


def mi_radius_gap(j, qy) -> float:
    """E_x D(P_{Y|X=x} || qy) - I(X;Y), summed from the definition.

    It equals D(P_Y || qy); the test below checks that identity.
    """
    p = j.probs if isinstance(j, FiniteJoint) else np.asarray(j, dtype=float)
    px = p.sum(axis=1)
    avg = 0.0
    for x in np.flatnonzero(px > 0):
        cond = p[x] / px[x]
        avg += px[x] * kl(cond / cond.sum(), qy)
    return avg - mutual_info(p)


def test_mi_radius_gap_identity():
    # The gap over a reference output law equals D(P_Y || q); it vanishes
    # exactly at the true output marginal.
    j = FiniteJoint.binary_symmetric(0.5)
    assert mi_radius_gap(j, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    q = np.array([0.3, 0.7])
    expected = kl(j.marginal_y(), q)
    assert mi_radius_gap(j, q) == pytest.approx(expected, abs=1e-12)
    rng = substream(13, "test/radius")
    for _ in range(20):
        table = random_joint(rng, (3, 3))
        qy = rng.dirichlet(np.ones(3))
        assert mi_radius_gap(table, qy) == pytest.approx(
            kl(table.sum(axis=0), qy), abs=1e-10
        )


# ----------------------------------------------------------------------
# Fisher information and the prior pipeline
# ----------------------------------------------------------------------

def test_fisher_matches_closed_form():
    fam = binary_pair_family()
    for rho in (0.0, 0.5, 0.9):
        target = 1.0 / (1.0 - rho * rho)
        value = fisher_fd(fam, rho)
        assert abs(value - target) / target < 1e-4


def test_fisher_frozen_values():
    fam = binary_pair_family()
    assert fisher_fd(fam, 0.0) == pytest.approx(1.0000005002336545, abs=1e-12)
    assert fisher_fd(fam, 0.9) == pytest.approx(5.263407947689332, abs=1e-11)


def test_fisher_stencil_domain_errors():
    fam = binary_pair_family()
    with pytest.raises(ValueError):
        fisher_fd(fam, 0.999)  # stencil leaves the domain
    with pytest.raises(ValueError):
        fisher_fd(fam, 0.0, eps=0.0)


def test_param_family_domain():
    fam = binary_pair_family(lo=-0.5, hi=0.5)
    with pytest.raises(ValueError):
        fam.at(0.6)
    np.testing.assert_allclose(
        fam.at(0.5), [0.375, 0.125, 0.125, 0.375], atol=1e-15
    )


def test_cosine_prior_shape():
    prior = cosine_prior(0.2, 0.1)
    assert isinstance(prior, CosinePrior)
    assert prior.i_lambda == pytest.approx((math.pi / 0.1) ** 2, abs=0)
    assert prior.support == (pytest.approx(0.1), pytest.approx(0.3))
    # pdf integrates to 1 (trapezoid on a fine grid) and vanishes outside
    grid = np.linspace(0.1, 0.3, 20001)
    pdf = prior.pdf(grid)
    trapezoid = (np.diff(grid) * (pdf[1:] + pdf[:-1]) / 2.0).sum()  # any numpy
    assert trapezoid == pytest.approx(1.0, abs=1e-8)
    assert prior.pdf(0.05) == 0.0
    # cdf runs 0 -> 1 monotonically and matches the pdf numerically
    cdf = prior.cdf(grid)
    assert cdf[0] == pytest.approx(0.0, abs=1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(cdf) >= 0)
    mid = (grid[:-1] + grid[1:]) / 2
    np.testing.assert_allclose(
        np.diff(cdf) / np.diff(grid), prior.pdf(mid), atol=1e-6
    )


def test_cosine_prior_sampling():
    prior = cosine_prior(0.0, 0.25)
    draws = prior.sample(20000, substream(5, "test/prior"))
    lo, hi = prior.support
    assert draws.min() >= lo and draws.max() <= hi
    # mean is the center; sd of the squared-cosine law is
    # half_width * sqrt(1/3 - 2/pi^2)
    sd = 0.25 * math.sqrt(1.0 / 3.0 - 2.0 / math.pi**2)
    assert abs(draws.mean()) < 3 * sd / math.sqrt(draws.size)
    with pytest.raises(ValueError):
        prior.sample(0, substream(5, "test/prior"))


def test_cosine_prior_width_must_be_positive():
    for half_width in (0.0, -0.1, math.nan):  # a nan width once built a prior
        with pytest.raises(ValueError, match="half_width must be positive"):
            cosine_prior(0.0, half_width)


def test_bayes_cr_bound_arithmetic():
    assert bayes_cr_bound(4.0, 6.0) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError):
        bayes_cr_bound(-1.0, 2.0)
    for terms in ((math.nan, 1.0), (1.0, math.nan)):  # nan once returned nan
        with pytest.raises(ValueError, match="nonnegative"):
            bayes_cr_bound(*terms)
    with pytest.raises(ValueError):
        bayes_cr_bound(0.0, 0.0)


# ----------------------------------------------------------------------
# closed-form risk benchmarks
# ----------------------------------------------------------------------

def test_risk_bounds_formulas():
    k, rho = 100, 0.0
    bounds = risk_bounds(k, rho)
    assert bounds.global_upper == pytest.approx(0.0072134752044448166, abs=1e-18)
    assert bounds.global_upper == pytest.approx(1 / (2 * k * math.log(2)), abs=0)
    k, rho = 18, 0.6
    bounds = risk_bounds(k, rho)
    base = 1 / (2 * k * math.log(2))
    assert bounds.local_upper == pytest.approx((1 - rho**2) ** 2 * base, abs=1e-15)
    assert bounds.local_lower == pytest.approx((1 - abs(rho)) ** 2 * base, abs=1e-15)
    assert bounds.naive_risk == pytest.approx((1 - rho**2) / k, abs=1e-15)
    assert bounds.max_scheme_risk == pytest.approx((1 - rho**2) * base, abs=1e-15)


def test_risk_bounds_dict_order():
    d = risk_bounds(8, 0.1).as_dict()
    assert list(d) == [
        "global_upper",
        "local_upper",
        "local_lower",
        "naive_risk",
        "max_scheme_risk",
    ]


def test_risk_bounds_validation():
    with pytest.raises(ValueError):
        risk_bounds(0, 0.0)
    with pytest.raises(ValueError):
        risk_bounds(2.5, 0.0)
    with pytest.raises(ValueError):
        risk_bounds(True, 0.5)  # a bool is not a budget
    with pytest.raises(ValueError):
        risk_bounds(8, 1.5)
    for rho in (True, "0.5"):  # a bool or a string is not a correlation
        with pytest.raises(ValueError, match="correlation must be a finite number"):
            risk_bounds(8, rho)
