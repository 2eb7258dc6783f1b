"""Correlated pair sources and correlation-preserving transforms.

Two source families are supported: ``binary`` (uniform +-1 coordinates that
agree with probability (1 + rho) / 2) and ``gaussian`` (unit-variance jointly
normal coordinates with E[XY] = rho). Each operation draws from the stream
named by (seed, tag), the tag fixed per operation and family. A binary
pair costs one raw generator word: its bit 0 is x's sign and its high 53
bits, the uniform numpy's random() would make of it, decide agreement. A
gaussian pair costs two, x's and the noise z's, each made a normal by the
inverse CDF of its high 53 bits (see _normals) only where it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._normal import ndtri
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
    draws n raw 64-bit words, one per pair; a gaussian one draws 2n, x's n
    words, then the n words of the noise z that y = rho x + sqrt(1 - rho^2) z
    mixes in (see _draw_stack). Either way the columns are float64.
    """
    _count(n, "sample count")
    return _draw_pairs(model, n, substream(seed, f"gen_pairs/{model.family}"))


def _draw_pairs(model: CorrelationModel, n: int, rng: np.random.Generator) -> PairBatch:
    """gen_pairs' recipe for n > 0 pairs, drawn from rng where it stands:
    the one-row stack, every pair of it read."""
    a, b = _draw_stack(model, n, 1, rng)
    if model.family == "binary":
        x, y = a[0].astype(float), b[0].astype(float)
    else:
        x, y = b(0, slice(None))
    return PairBatch._trusted(x, y, model.family)


def _draw_stack(model: CorrelationModel, n: int, rows: int, rng: np.random.Generator):
    """Row t of rows x n pairs is the t-th batch of n pairs that gen_pairs'
    recipe draws in turn from rng where it stands, so a stack of r rows is
    r consecutive one-row draws.

    A binary stack is (x, y), int8 +-1, from one call of n rows raw 64-bit
    words, one word per pair, row t the words [t n, (t + 1) n): x is +1
    where the word's bit 0 is set, and y agrees with x where the word's
    high 53 bits w >> 11 lie below ceil(p 2^53), p = (1 + rho) / 2. As
    rng.random() on a word is (w >> 11) 2^-53, that is exactly
    random() < p: the same law for every rho, with y = x at rho = 1 and
    y = -x at rho = -1.

    A gaussian stack is (keys, read), from one call of 2 n rows words: word
    i of row t is x_i's and word n + i the noise z_i's, and each is the
    normal _normals makes of its high 53 bits. keys, rows x n, holds x's
    high bits, which order the row as x does (Alice's argmax). read(rows,
    cols) indexes the stack as numpy indexes a rows x n array and returns
    float64 (x, y) there, y = rho x + sqrt(1 - rho^2) z: only the words read
    become normals.
    """
    if model.family == "binary":
        words = rng.bit_generator.random_raw((rows, n))
        # random() < p iff (w >> 11) < ceil(p 2^53) iff w < limit
        limit = math.ceil((1.0 + model.rho) / 2.0 * 2.0**53) << 11
        if limit >> 64:  # p = 1: every word agrees
            flip = np.zeros(words.shape, dtype=np.uint8)
        else:
            flip = (words >= limit).view(np.uint8)
        x = words.astype(np.uint8)  # the low byte
        x &= 1
        y = x ^ flip
        # a bit b to 2 b - 1 in uint8 (0 wraps to 255), viewed as int8 +-1
        for sign in (x, y):
            sign += sign
            sign -= 1
        return x.view(np.int8), y.view(np.int8)
    high = rng.bit_generator.random_raw((rows, 2 * n))
    high >>= 11
    keys, noise = high[:, :n], high[:, n:]
    scale, rho = math.sqrt(1.0 - model.rho**2), model.rho

    def read(at, cols):
        x, y = _normals(np.stack((keys[at, cols], noise[at, cols])))
        y *= scale  # z scaled in place, then + rho x
        y += rho * x
        return x, y

    return keys, read


def _normals(high: np.ndarray) -> np.ndarray:
    """The unit normals of raw 64-bit words, given their high 53 bits
    j = w >> 11 (the numerator of numpy's random() on w), elementwise.

    x = Phi^-1((j + 1/2) 2^-53), the normal quantile at the middle of j's
    cell, evaluated through Phi^-1's symmetry: j and its mirror
    2^53 - 1 - j share m, the lesser of the two, and x = ndtri(p) with
    p = (m + 1/2) 2^-53, negated where j >= 2^52 (w's top bit set). p is
    exact and lies in [2^-54, 1/2), so x is finite, |x| <= 8.3, x has the
    sign of w's top bit, and the complement ~w gives -x exactly. x rises
    with j, but for ndtri's rounding, which can tie or swap values of j a
    few units apart. Uniform words give the normal's quantiles at 2^53
    equally likely midpoints: a law whose CDF is within half a cell,
    2^-54, of Phi's but for ndtri's rounding, cut at |x| = 8.29.
    """
    m = np.minimum(high, (2**53 - 1) - high)
    p = m.astype(float)
    p += 0.5
    p *= 2.0**-53
    x = ndtri(p)  # negative
    sign = x.view(np.uint64)
    sign ^= high >> 52 << 63  # j's top bit becomes x's sign bit
    return x


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
