"""Finite-alphabet information measures and estimation-risk bounds.

All information quantities are in bits (log base 2). Kullback-Leibler
divergence returns ``math.inf`` whenever the first argument charges a point
the second gives zero mass; infinity is never approximated by a large float.
"""

from __future__ import annotations

import math
import numbers
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
    "binary_pair_family",
    "fisher_fd",
    "cosine_prior",
    "bayes_cr_bound",
    "risk_bounds",
]

# Tolerance for "entries sum to one" checks on probability tables.
PMF_ATOL = 1e-12
LN2 = math.log(2.0)


def _is_number(value, integral: bool) -> bool:
    """Whether value is a finite real (an integer if integral), not a bool."""
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Integral if integral else numbers.Real)
        and math.isfinite(value)
    )


def _check_correlation(rho) -> None:
    """Raise ValueError unless rho is a finite real number in [-1, 1]."""
    if not _is_number(rho, integral=False):
        raise ValueError(f"correlation must be a finite number, got {rho!r}")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")


def _as_pmf(p, name: str = "pmf", atol: float = 1e-9) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    _check_pmfs(arr[None], name, atol)
    return arr


def _check_pmfs(stack: np.ndarray, name: str, atol: float = 1e-9) -> None:
    """Checks on a stack of B same-shape pmfs (B, ...), all at once.

    Each must be nonempty with no negative entry and sum to 1 within atol.
    """
    if math.prod(stack.shape[1:]) == 0:
        raise ValueError(f"{name} must be nonempty")
    if np.any(stack < 0):
        raise ValueError(f"{name} has negative entries")
    totals = stack.reshape(len(stack), -1).sum(axis=1)
    bad = ~(np.abs(totals - 1.0) <= atol)  # a nan entry makes its total nan
    if bad.any():
        total = float(totals[bad][0])
        raise ValueError(f"{name} sums to {total!r}, expected 1 within {atol}")


def _check_joints(stack: np.ndarray) -> None:
    """FiniteJoint's checks on a stack of joint tables (B, ...)."""
    _check_pmfs(stack, "joint table", PMF_ATOL)


@dataclass(frozen=True)
class FiniteJoint:
    """Joint pmf of a pair of finite-alphabet variables, stored row = x."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"joint table must be 2-D, got shape {arr.shape}")
        _check_joints(arr[None])
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
        _check_correlation(rho)
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
    return float(_kl_rows(parr[None], qarr[None])[0])


def mutual_info(j) -> float:
    """I(X;Y) in bits of a 2-D joint table (FiniteJoint or array)."""
    if not isinstance(j, FiniteJoint):
        j = FiniteJoint(np.asarray(j, dtype=float))
    return float(_mutual_info_rows(j.probs[None])[0])


def cond_mutual_info(j3) -> float:
    """I(X;Y|Z) in bits of a 3-way array indexed (x, y, z)."""
    arr = np.asarray(j3, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-way array, got shape {arr.shape}")
    _check_pmfs(arr[None], "joint table")
    return float(_cond_mutual_info_rows(arr[None])[0])


# Batched kernels: each takes a stack of B tables along a leading axis,
# trusts its caller to have checked them, and returns B values in bits.
# A table's value does not depend on the batch it rides in: the terms are
# laid out, and each row summed, in the order a lone table uses.

def _log_ratio_sums(p: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Per row b of (B, N) arrays, sum over p_b > 0 of p log2(num / den).

    When p and den are positive throughout, one call sums every row.
    Otherwise each row sums its own support, compacted as a lone table's
    is, and is +inf where den vanishes on that support.
    """
    support = p > 0
    if support.all() and den.all():
        return (p * np.log2(num / den)).sum(axis=1)
    out = np.empty(len(p))
    for b in range(len(p)):
        keep = support[b]
        if np.any(den[b][keep] == 0):
            out[b] = math.inf
        else:
            ps = p[b][keep]
            out[b] = (ps * np.log2(num[b][keep] / den[b][keep])).sum()
    return out


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p_b || q_b) for stacks of same-shape pmfs (B, ...)."""
    p = p.reshape(len(p), -1)
    return _log_ratio_sums(p, p, q.reshape(len(q), -1))


def _mutual_info_rows(p: np.ndarray) -> np.ndarray:
    """I(X;Y) for a stack of 2-D joint tables (B, nx, ny)."""
    q = p.sum(axis=2)[:, :, None] * p.sum(axis=1)[:, None, :]
    return _kl_rows(p, q)


def _cond_mutual_info_rows(arr: np.ndarray) -> np.ndarray:
    """I(X;Y|Z) for a stack of 3-way tables (B, x, y, z)."""
    # sum over support of p(x,y,z) log [ p(x,y,z) p(z) / (p(x,z) p(y,z)) ]
    pz = arr.sum(axis=(1, 2), keepdims=True)
    pxz = arr.sum(axis=2, keepdims=True)
    pyz = arr.sum(axis=1, keepdims=True)
    rows = len(arr)
    den = np.broadcast_to(pxz * pyz, arr.shape)
    return _log_ratio_sums(
        arr.reshape(rows, -1), (arr * pz).reshape(rows, -1), den.reshape(rows, -1)
    )


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
    if not _is_number(k, integral=True) or k <= 0:
        raise ValueError(f"bit budget must be a positive integer, got {k!r}")
    _check_correlation(rho)
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
