"""Finite-alphabet information measures and estimation-risk bounds.

All information quantities are in bits (log base 2). Kullback-Leibler
divergence returns ``math.inf`` whenever the first argument charges a point
the second gives zero mass; infinity is never approximated by a large float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

__all__ = [
    "FiniteJoint",
    "ParamFamily",
    "CosinePrior",
    "BoundSet",
    "binary_entropy",
    "entropy",
    "kl",
    "mutual_info",
    "cond_mutual_info",
    "mi_radius_gap",
    "binary_pair_family",
    "fisher_fd",
    "cosine_prior",
    "bayes_cr_bound",
    "risk_bounds",
]

# Tolerance for "entries sum to one" checks on probability tables.
PMF_ATOL = 1e-12
LN2 = math.log(2.0)


def _as_pmf(p, name: str = "pmf", atol: float = 1e-9) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} sums to {total!r}, expected 1 within {atol}")
    return arr


@dataclass(frozen=True)
class FiniteJoint:
    """Joint pmf of a pair of finite-alphabet variables, stored row = x."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"joint table must be 2-D, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("joint table has negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > PMF_ATOL:
            raise ValueError(
                f"joint table sums to {total!r}, expected 1 within {PMF_ATOL}"
            )
        object.__setattr__(self, "probs", arr)

    @property
    def nx(self) -> int:
        return self.probs.shape[0]

    @property
    def ny(self) -> int:
        return self.probs.shape[1]

    def marginal_x(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    @staticmethod
    def binary_symmetric(rho: float) -> "FiniteJoint":
        """Uniform +-1 pair with agreement probability (1 + rho) / 2."""
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
        agree = (1.0 + rho) / 4.0
        differ = (1.0 - rho) / 4.0
        return FiniteJoint(np.array([[agree, differ], [differ, agree]]))

    @staticmethod
    def from_product(px, py) -> "FiniteJoint":
        px = _as_pmf(px, "px")
        py = _as_pmf(py, "py")
        return FiniteJoint(np.outer(px, py))

    def product(self, other: "FiniteJoint") -> "FiniteJoint":
        """Independent product source over composite alphabets.

        Coordinate order inside each composite symbol is (self, other), with
        the first coordinate varying slowest.
        """
        p = np.einsum("ij,kl->ikjl", self.probs, other.probs)
        return FiniteJoint(p.reshape(self.nx * other.nx, self.ny * other.ny))


def binary_entropy(q: float) -> float:
    """Entropy in bits of a Bernoulli(q) variable."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    if q in (0.0, 1.0):
        return 0.0
    return -(q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q))


def entropy(p) -> float:
    """Shannon entropy in bits; 0 * log 0 terms contribute zero."""
    arr = _as_pmf(p)
    pos = arr[arr > 0]
    return float(-(pos * np.log2(pos)).sum())


def kl(p, q) -> float:
    """D(p || q) in bits; +inf when p charges a q-null point."""
    parr = _as_pmf(p, "p")
    qarr = _as_pmf(q, "q")
    if parr.shape != qarr.shape:
        raise ValueError(f"shape mismatch: {parr.shape} vs {qarr.shape}")
    support = parr > 0
    if np.any(qarr[support] == 0):
        return math.inf
    ps = parr[support]
    return float((ps * np.log2(ps / qarr[support])).sum())


def _joint_table(j) -> np.ndarray:
    if isinstance(j, FiniteJoint):
        return j.probs
    return FiniteJoint(np.asarray(j, dtype=float)).probs


def mutual_info(j) -> float:
    """I(X;Y) in bits of a 2-D joint table (FiniteJoint or array)."""
    p = _joint_table(j)
    return kl(p.ravel(), np.outer(p.sum(axis=1), p.sum(axis=0)).ravel())


def cond_mutual_info(j3) -> float:
    """I(X;Y|Z) in bits of a 3-way array indexed (x, y, z)."""
    arr = np.asarray(j3, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-way array, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("joint table has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint table sums to {total!r}, expected 1")
    # sum over support of p(x,y,z) log [ p(x,y,z) p(z) / (p(x,z) p(y,z)) ]
    pz = arr.sum(axis=(0, 1), keepdims=True)
    pxz = arr.sum(axis=1, keepdims=True)
    pyz = arr.sum(axis=0, keepdims=True)
    mask = arr > 0
    den = np.broadcast_to(pxz * pyz, arr.shape)[mask]
    ratio = (arr * pz)[mask] / den
    return float((arr[mask] * np.log2(ratio)).sum())


def mi_radius_gap(j, qy) -> float:
    """E_x D(P_{Y|X=x} || qy) - I(X;Y), the excess of qy over the MI center.

    Nonnegative for every qy, zero exactly at qy = P_Y, and equal to
    D(P_Y || qy). Computed from the definition, not the shortcut identity,
    so tests can confirm the identity independently.
    """
    p = _joint_table(j)
    qarr = _as_pmf(qy, "qy")
    if qarr.shape != (p.shape[1],):
        raise ValueError(f"qy must have shape ({p.shape[1]},), got {qarr.shape}")
    px = p.sum(axis=1)
    avg = 0.0
    for x in range(p.shape[0]):
        if px[x] <= 0:
            continue
        cond = p[x] / px[x]
        term = kl(cond / cond.sum(), qarr)
        if math.isinf(term):
            return math.inf
        avg += px[x] * term
    return float(avg - mutual_info(p))


@dataclass(frozen=True)
class ParamFamily:
    """One-parameter family of finite distributions on a fixed alphabet."""

    pmf: Callable[[float], np.ndarray]
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty parameter interval [{self.lo}, {self.hi}]")

    def at(self, theta: float) -> np.ndarray:
        if not self.lo <= theta <= self.hi:
            raise ValueError(
                f"parameter {theta} outside domain [{self.lo}, {self.hi}]"
            )
        return _as_pmf(self.pmf(theta), f"pmf({theta})")


def binary_pair_family(lo: float = -0.999, hi: float = 0.999) -> ParamFamily:
    """+-1 symmetric pair indexed by its correlation; Fisher info 1/(1-rho^2)."""

    def pmf(rho: float) -> np.ndarray:
        agree = (1.0 + rho) / 4.0
        differ = (1.0 - rho) / 4.0
        return np.array([agree, differ, differ, agree])

    return ParamFamily(pmf, lo, hi)


def fisher_fd(fam: ParamFamily, theta: float, eps: float = 1e-3) -> float:
    """Fisher information (natural-log convention) from the KL curvature.

    Uses the central estimate 2 ln2 * [g(theta, eps) + g(theta, -eps)] /
    (2 eps^2) where g(theta, e) = D(P_theta || P_{theta+e}) in bits.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if theta - eps < fam.lo or theta + eps > fam.hi:
        raise ValueError(
            f"stencil [{theta - eps}, {theta + eps}] leaves domain "
            f"[{fam.lo}, {fam.hi}]"
        )
    center = fam.at(theta)
    g_plus = kl(center, fam.at(theta + eps))
    g_minus = kl(center, fam.at(theta - eps))
    if math.isinf(g_plus) or math.isinf(g_minus):
        raise ValueError("family support changes within the stencil")
    return 2.0 * LN2 * (g_plus + g_minus) / (2.0 * eps * eps)


@dataclass(frozen=True)
class CosinePrior:
    """Squared-cosine prior on [center - half_width, center + half_width]."""

    center: float
    half_width: float

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def i_lambda(self) -> float:
        """Prior Fisher information integral(lambda'^2 / lambda)."""
        return (math.pi / self.half_width) ** 2

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.half_width, self.center + self.half_width)

    def pdf(self, theta) -> np.ndarray:
        t = np.asarray(theta, dtype=float)
        u = t - self.center
        inside = np.abs(u) <= self.half_width
        vals = np.where(
            inside,
            np.cos(np.pi * u / (2.0 * self.half_width)) ** 2 / self.half_width,
            0.0,
        )
        return vals

    def cdf(self, theta) -> np.ndarray:
        t = np.asarray(theta, dtype=float)
        u = np.clip(t - self.center, -self.half_width, self.half_width)
        return (u + self.half_width) / (2.0 * self.half_width) + np.sin(
            np.pi * u / self.half_width
        ) / (2.0 * math.pi)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling on a dense monotone grid."""
        if n <= 0:
            raise ValueError(f"sample count must be positive, got {n}")
        lo, hi = self.support
        grid = np.linspace(lo, hi, 16385)
        return np.interp(rng.random(n), self.cdf(grid), grid)


def cosine_prior(center: float, half_width: float) -> CosinePrior:
    """Least-favorable-style smooth prior for local minimax arguments."""
    return CosinePrior(center, half_width)


def bayes_cr_bound(i_lambda: float, avg_fisher: float) -> float:
    """Bayesian Cramer-Rao lower bound 1 / (I_lambda + avg Fisher)."""
    if i_lambda < 0 or avg_fisher < 0:
        raise ValueError("information terms must be nonnegative")
    denom = i_lambda + avg_fisher
    if denom == 0:
        raise ValueError("prior and average Fisher information are both zero")
    return 1.0 / denom


@dataclass(frozen=True)
class BoundSet:
    """Closed-form risk benchmarks for a k-bit interactive budget."""

    k: int
    rho: float
    global_upper: float
    local_upper: float
    local_lower: float
    naive_risk: float
    max_scheme_risk: float

    def as_dict(self) -> dict:
        """The five risk levels by name, in field order (k and rho left out)."""
        return {f.name: getattr(self, f.name) for f in fields(self)[2:]}


def risk_bounds(k: int, rho: float) -> BoundSet:
    """Benchmark squared-error levels at bit budget k and correlation rho.

    global_upper is the budget-only minimax level 1/(2 k ln2); local_upper
    and local_lower bracket the achievable risk near a known nominal rho;
    naive_risk is the k-sample sign-exchange baseline (1 - rho^2)/k and
    max_scheme_risk the one-way maximum-pointer level (1 - rho^2)/(2 k ln2).
    """
    if not isinstance(k, (int, np.integer)) or k <= 0:
        raise ValueError(f"bit budget must be a positive integer, got {k!r}")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    base = 1.0 / (2.0 * k * LN2)
    one_minus_sq = 1.0 - rho * rho
    return BoundSet(
        k=int(k),
        rho=float(rho),
        global_upper=base,
        local_upper=one_minus_sq**2 * base,
        local_lower=(1.0 - abs(rho)) ** 2 * base,
        naive_risk=one_minus_sq / k,
        max_scheme_risk=one_minus_sq * base,
    )
