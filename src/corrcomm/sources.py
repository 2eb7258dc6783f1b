"""Correlated pair sources and correlation-preserving transforms.

Two source families are supported: ``binary`` (uniform +-1 coordinates that
agree with probability (1 + rho) / 2) and ``gaussian`` (unit-variance jointly
normal coordinates with E[XY] = rho). Each operation draws from the stream
named by (seed, tag), the tag fixed per operation and family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .infotheory import _check_correlation, _count
from .rng import substream

__all__ = [
    "CorrelationModel",
    "PairBatch",
    "ShiftParams",
    "gen_pairs",
    "shift_params",
    "shift_correlation",
    "binary_to_gaussian",
]

FAMILIES = ("binary", "gaussian")
_SIGNS = np.array([-1.0, 1.0])  # a sign by its bit


@dataclass(frozen=True)
class CorrelationModel:
    """Source family plus its pair correlation."""

    family: str
    rho: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        _check_correlation(self.rho)


@dataclass(frozen=True)
class PairBatch:
    """Equal-length sample columns for the two parties."""

    x: np.ndarray
    y: np.ndarray
    family: str

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("sample columns must be 1-D")
        if x.shape != y.shape:
            raise ValueError(f"column length mismatch: {x.shape} vs {y.shape}")
        if x.size < 1:
            raise ValueError("batch must contain at least one pair")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("samples must be finite numbers")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.family == "binary" and (
            np.any(np.abs(x) != 1.0) or np.any(np.abs(y) != 1.0)
        ):
            raise ValueError("binary batches must consist of +-1 values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def _trusted(cls, x: np.ndarray, y: np.ndarray, family: str) -> PairBatch:
        """A batch of columns that pass __post_init__'s checks as they are.

        The caller guarantees finite 1-D float64 columns of one nonzero
        length, a known family and +-1 binary values; nothing is re-checked.
        """
        batch = object.__new__(cls)
        vars(batch).update(x=x, y=y, family=family)
        return batch

    def __len__(self) -> int:
        return int(self.x.size)

    def empirical_correlation(self) -> float:
        """Mean sign product (binary) or Pearson correlation (gaussian)."""
        if self.family == "binary":
            return float(np.mean(self.x * self.y))
        if len(self) < 2:
            raise ValueError("Pearson correlation needs at least 2 pairs")
        return float(np.corrcoef(self.x, self.y)[0, 1])


def gen_pairs(model: CorrelationModel, n: int, seed: int) -> PairBatch:
    """Draw n correlated pairs from the model's joint law.

    The stream is that of (seed, "gen_pairs/<family>"). A binary batch
    draws n integers, then n uniforms; a gaussian one draws x's n normals,
    then the n normals z that y = rho x + sqrt(1 - rho^2) z mixes in (one
    call of 2n normals is the same stream as two calls of n).
    """
    _count(n, "sample count")
    return _draw_pairs(model, n, substream(seed, f"gen_pairs/{model.family}"))


def _draw_pairs(model: CorrelationModel, n: int, rng: np.random.Generator) -> PairBatch:
    """gen_pairs' recipe for n > 0 pairs, drawn from rng where it stands."""
    x, y = _draw_stack(model, n, 1, rng)
    return PairBatch._trusted(x[0], y[0], model.family)


def _draw_stack(model: CorrelationModel, n: int, rows: int, rng: np.random.Generator):
    """(x, y), each rows x n: row t is the t-th batch of n pairs that
    gen_pairs' recipe draws in turn from rng where it stands.

    A gaussian stack is one call of 2 n rows normals, row t's x then its z.
    A binary stack keeps each batch's integers-then-uniforms order, a call
    of each per row, and maps signs and agreements once for the stack.
    """
    if model.family == "binary":
        bits = np.empty((rows, n), dtype=np.int64)
        uniforms = np.empty((rows, n))
        for t in range(rows):
            bits[t] = rng.integers(0, 2, size=n)
            rng.random(out=uniforms[t])
        x = _SIGNS.take(bits)
        y = np.where(uniforms < (1.0 + model.rho) / 2.0, x, -x)
    else:
        normals = rng.standard_normal(2 * n * rows).reshape(rows, 2 * n)
        x, y = normals[:, :n], normals[:, n:]
        y *= math.sqrt(1.0 - model.rho**2)  # z scaled in place, then + rho x
        y += model.rho * x
    return x, y


@dataclass(frozen=True)
class ShiftParams:
    """Mixing weights that move correlation rho_in = 0 to rho0 and
    rho_in = (rho1 - rho0) / (1 - |rho0|) to rho1."""

    family: str
    rho0: float
    rho1: float
    alpha: float
    s: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not -1.0 <= self.rho1 <= 1.0:
            raise ValueError(f"target correlation must lie in [-1, 1], got {self.rho1}")
        lo, hi = (self.rho1 - 1.0) / 2.0, (self.rho1 + 1.0) / 2.0
        if not lo <= self.rho0 <= hi:
            raise ValueError(
                f"base correlation {self.rho0} outside feasible interval "
                f"[{lo}, {hi}] for target {self.rho1}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.alpha}")
        if self.s not in (-1.0, 1.0):
            raise ValueError(f"sign must be +-1, got {self.s}")

    @property
    def input_rho(self) -> float:
        """Source correlation whose shifted image has correlation rho1."""
        return (self.rho1 - self.rho0) / (1.0 - abs(self.rho0))


def shift_params(family: str, rho0: float, rho1: float) -> ShiftParams:
    """Resolve the mixing weights for a correlation shift rho0 -> rho1.

    Binary mixes with probability alpha = |rho0|; gaussian mixes amplitudes
    with alpha^2 = |rho0|. The shared-noise sign s is sign(rho0), taken as
    +1 when rho0 = 0.
    """
    _check_correlation(rho0)
    _check_correlation(rho1)
    if family == "binary":
        alpha = abs(rho0)
    elif family == "gaussian":
        alpha = math.sqrt(abs(rho0))
    else:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    s = -1.0 if rho0 < 0 else 1.0
    return ShiftParams(family=family, rho0=rho0, rho1=rho1, alpha=alpha, s=s)


def shift_correlation(batch: PairBatch, params: ShiftParams, seed: int) -> PairBatch:
    """Mix shared noise into both columns, preserving the marginals.

    For gaussian batches X' = alpha Z + sqrt(1 - alpha^2) X and
    Y' = s alpha Z + sqrt(1 - alpha^2) Y with one shared Z per row. For
    binary batches a Bernoulli(alpha) mask B replaces the row by a shared
    uniform sign: X' = B Z + (1 - B) X, Y' = s B Z + (1 - B) Y. Either way
    an input correlation rho maps to alpha s + (1 - alpha) rho (binary) or
    s alpha^2 + (1 - alpha^2) rho (gaussian), so params.input_rho lands
    exactly on rho1.
    """
    if batch.family != params.family:
        raise ValueError(
            f"batch family {batch.family!r} does not match shift family "
            f"{params.family!r}"
        )
    rng = substream(seed, f"shift_correlation/{params.family}")
    n = len(batch)
    if params.family == "binary":
        mask = rng.random(n) < params.alpha
        z = rng.integers(0, 2, size=n) * 2.0 - 1.0
        x = np.where(mask, z, batch.x)
        y = np.where(mask, params.s * z, batch.y)
    else:
        z = rng.standard_normal(n)
        keep = math.sqrt(1.0 - params.alpha**2)
        x = params.alpha * z + keep * batch.x
        y = params.s * params.alpha * z + keep * batch.y
    return PairBatch(x=x, y=y, family=params.family)


def binary_to_gaussian(batch: PairBatch, t: int, a_t: float | None = None,
                       seed: int = 0) -> PairBatch:
    """Aggregate binary pairs into near-gaussian pairs by the CLT.

    Consecutive groups of t rows are summed and scaled by 1/sqrt(t), then
    independent smoothing noise a_t * N(0, 1) is added per column. The
    output has marginal variance 1 + a_t^2 and pair correlation
    rho / (1 + a_t^2). The default smoothing level is a_t = t**(-1/4),
    which vanishes while still dominating the CLT discretization gap.
    """
    if batch.family != "binary":
        raise ValueError("CLT aggregation expects a binary batch")
    _count(t, "group size")
    if len(batch) % t != 0:
        raise ValueError(
            f"batch length {len(batch)} is not divisible by group size {t}"
        )
    n_out = len(batch) // t
    if a_t is None:
        a_t = t ** (-0.25)
    if a_t < 0:
        raise ValueError(f"smoothing level must be nonnegative, got {a_t}")
    used = n_out * t
    scale = 1.0 / math.sqrt(t)
    x = batch.x[:used].reshape(n_out, t).sum(axis=1) * scale
    y = batch.y[:used].reshape(n_out, t).sum(axis=1) * scale
    rng = substream(seed, "binary_to_gaussian")
    x = x + a_t * rng.standard_normal(n_out)
    y = y + a_t * rng.standard_normal(n_out)
    return PairBatch(x=x, y=y, family="gaussian")
