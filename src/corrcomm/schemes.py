"""One-way and two-way estimation schemes under a k-bit budget.

A scheme is its row of ``SCHEMES``: its params, its plan (the cell's
checks, worked out once per cell), its literal kernel, Alice's messages,
the aux keys a runner reports and its fast sampler. ``check_preconditions``,
the runners and ``estimate_risk`` all read a cell through the row's plan,
so they accept and reject the same cells. Each scheme exists in two forms:

* the literal protocol on real samples, written once as a kernel
  (``_naive_stack`` ... ``_two_way_stack``) that carries it out on every
  row of a stack, a 2-D block of whole trials' batches, in one numpy pass.
  The batch runner (``run_*``) is its one-row case on a ``PairBatch``,
  producing a ``Transcript`` with exact bit accounting; a literal cell of
  ``estimate_risk`` runs its trials in stacks of as many as fit in
  ``_STACK`` = 2^14 pairs per column (at least one), and each row's values
  are the ones the runner gives on that row's batch, to the bit.
* a vectorized trial sampler used by ``estimate_risk`` that draws the
  scheme's sufficient statistics directly (for example the maximum of
  2^k unit normals via its inverse CDF) at a fraction of the cost. It
  follows the runner's law, except that the local sampler (and two_way's
  phase 2 through it) marks bucket mates with the unconditioned tail
  probability, though their x lies below the winner's: decode failure
  0.5606 against 0.5774 exact at k = 10, rho = rho_nominal = 0.9.

Tests cross-validate the two forms against each other; risk sweeps default
to the sampler so Monte Carlo sizes in the hundreds of thousands stay cheap.

The pointer samplers work through a cell in chunks of ``_CHUNK`` = 8192
trials (a multiple of every SIMD width, small enough that a chunk's
temporaries stay in cache), so a cell holds a few trial-length arrays
however many trials it runs, and ndtri never sees more than one chunk.
Chunking moves no stream: a numpy Generator gives the same values, and
ends in the same state, whether n draws are one call or consecutive calls
whose sizes sum to n, and each sampler keeps its draws in phase order
(every trial's first draw, then every trial's second, and so on).
Elementwise arithmetic gives the same floats chunk by chunk, and sums are
never chunked, so no pairwise-summation order changes either. Literal
stacks move no stream for the same reason: a stack is one call of raw
generator words, one a pair (binary) or two (gaussian), and a kernel's
arithmetic is elementwise per row or counts exactly. Binary stacks hold
int8 signs and a runner's batch float64 ones; the kernels count and sum
them as integers, so either gives the same columns. A gaussian kernel
orders Alice's pool by the words (the normal's inverse CDF rises with
them) and makes normals of only the pairs it reads, in one transform call
a stack (two for two_way's phases); a runner's batch orders by x and
reads by indexing, the same floats. The two orders part only where
ndtri's rounding ties or swaps two of a row's words a few units of 2^-53
apart at its top, about n 2^-50 a row of n.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._normal import log_ndtr, ndtr, ndtri
from .infotheory import LN2, _check_correlation, _count, _is_number, binary_entropy
from .rng import substream
from .sources import CorrelationModel, PairBatch, _draw_stack

__all__ = [
    "Message",
    "Transcript",
    "EstimateResult",
    "RiskReport",
    "SchemeConfig",
    "expected_max_normal",
    "var_max_normal",
    "naive_mse_exact",
    "max_scheme_mse_exact",
    "run_naive",
    "run_max_scheme",
    "run_local_scheme",
    "run_binary_block",
    "run_two_way",
    "block_layout",
    "BlockLayout",
    "default_phase1_bits",
    "check_preconditions",
    "estimate_risk",
    "SCHEME_NAMES",
    "SCHEMES",
]

MAX_POINTER_BITS = 26  # batch runners materialize 2^k samples; keep that sane
# The fast max-normal draw clips its upper tail at 1e-300, which moves about
# 2^k * 1e-300 of the draws (1e-11 at k = 960, 1% at k = 990) off the law.
# The max-normal quadrature takes pools up to the same bound; near 2^1024 it
# loses its accuracy.
MAX_FAST_POINTER_BITS = 960

# Local-scheme constants: the marking threshold sits at a (1 - C_THRESHOLD)
# multiple of the asymptotic maximum location, and the index prefix carries
# a (1 + C_BITS) multiple of the nominal bit count.
C_THRESHOLD = 0.1
C_BITS = 0.15

# Binary block scheme: the block count carries an EXIST_FACTOR * sqrt(n)
# safety multiple so a block with the exact target sum exists with high
# probability, and the prefix gets GUARD_BITS extra bits so the decoder's
# candidate list is unique with high probability.
EXIST_FACTOR = 6.0
GUARD_BITS = 4

TWO_WAY_NOMINAL_CAP = 0.95

# log sqrt(2 pi), the unit normal density's log normalizer. The quadrature
# integrand spells out norm.logpdf's own expression with this constant, so
# its floats match scipy.stats to the bit without importing it.
_NORM_PDF_LOGC = np.log(np.sqrt(2 * np.pi))
# exp of anything below this rounds to 0.0 in float64: the smallest
# subnormal, 2^-1074, is exp(-744.44), and half of it exp(-745.13)
_LOG_UNDERFLOW = -746.0


# ----------------------------------------------------------------------
# quadrature oracles for the maximum of N unit normals
# ----------------------------------------------------------------------

# The 20-node Gauss-Legendre rule on [-1, 1] and the 10-node rule that
# checks it: each one's positive nodes and their weights, bit for bit as
# numpy.polynomial.legendre.leggauss returns them (it costs 0.4 ms, and its
# import 7 ms, per process). The rules are symmetric about 0.
_LEGENDRE_HALVES = (
    ((0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
      0.5108670019508271, 0.636053680726515, 0.7463319064601508,
      0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095),
     (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
      0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
      0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
      0.017614007139150893)),
    ((0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
      0.8650633666889845, 0.9739065285171717),
     (0.2955242247147528, 0.2692667193099965, 0.219086362515982,
      0.1494513491505804, 0.06667134430868814)),
)


def _mirrored(half, sign: float) -> np.ndarray:
    half = np.array(half)
    return np.concatenate((sign * half[::-1], half))


# both rules side by side: columns [:20] and [20:]
_RULE_NODES = np.concatenate([_mirrored(nodes, -1.0) for nodes, _ in _LEGENDRE_HALVES])
_RULE_WEIGHTS = np.concatenate([_mirrored(weights, 1.0) for _, weights in _LEGENDRE_HALVES])


def _max_normal_panels(n: int) -> tuple[np.ndarray, float]:
    """Midpoints and half-width of the quadrature panels for a pool of n >= 2.

    Panels of width at most 1 / max(1, peak), the width of the density's
    bulk, cover [-12, peak + 12], peak = sqrt(2 ln n). The density
    n phi(x) Phi(x)^(n-1) is log-concave, so it rises up to its mode, and a
    leading panel whose right edge has log-density below -746 has every
    node's density underflow to exactly 0. Such panels are dropped (1757 of
    2207 at 2^960, 80 of 155 at 2^20, none at n = 2). They are found without
    log_ndtr, by bounding Phi at the edges from above with Mills'-ratio
    inequalities, a = |x|: Phi(x) <= phi(x) 4 / (3a + sqrt(a^2 + 8)) for
    x < 0 (Sampford 1953), and 1 - Phi(x) >= phi(x) 2 / (a + sqrt(a^2 + 4))
    for x >= 0 (Birnbaum 1942).
    """
    log_n = math.log(n)
    peak = math.sqrt(2.0 * log_n)
    lo, hi = -12.0, peak + 12.0
    panels = math.ceil((hi - lo) * max(1.0, peak))
    half = (hi - lo) / (2 * panels)
    edges = lo + 2.0 * half * np.arange(1, panels + 1)
    a = np.abs(edges)
    log_pdf = -edges**2 / 2.0 - _NORM_PDF_LOGC
    log_cdf_bound = np.where(
        edges < 0.0,
        log_pdf + np.log(4.0 / (3.0 * a + np.sqrt(a * a + 8.0))),
        np.log1p(-np.exp(log_pdf) * 2.0 / (a + np.sqrt(a * a + 4.0))),
    )
    first = int(np.argmax(log_n + log_pdf + (n - 1) * log_cdf_bound >= _LOG_UNDERFLOW))
    return (lo + half * (2 * np.arange(panels) + 1))[first:], half


@lru_cache(maxsize=None)
def _max_normal_moments(n: int) -> tuple[float, float]:
    """(mean, central variance) of the maximum of n unit normals.

    Composite Gauss-Legendre quadrature of x and (x - mean)^2 against the
    density n phi(x) Phi(x)^(n-1) on the panels of `_max_normal_panels`. A
    10-node rule on the same panels bounds the 20-node rule's error, which
    must stay under 1e-8. Both moments agree with adaptive quadrature
    (scipy.integrate.quad) to 1e-14 relative for pools from 2 to 2^26, and
    with a rule refined fourfold in panels and 1.5-fold in nodes to 1e-13
    up to 2^960, where the integrand's own rounding sets the floor. The
    variance is integrated about the mean, so unlike E[M^2] - E[M]^2 it does
    not cancel as the pool grows.
    """
    if n == 1:
        return 0.0, 1.0
    mids, half = _max_normal_panels(n)
    x = mids[:, None] + half * _RULE_NODES
    log_density = (math.log(n) + (-x**2 / 2.0 - _NORM_PDF_LOGC)
                   + (n - 1) * log_ndtr(x))
    mass = (half * _RULE_WEIGHTS) * np.exp(log_density)

    def moments(cols):
        x_rule, mass_rule = x[:, cols], mass[:, cols]
        # elementwise sums, not `@`: a BLAS dot of this length may start
        # threads, and pairwise summation keeps the rounding down
        mean = float((mass_rule * x_rule).sum())
        return mean, float((mass_rule * (x_rule - mean) ** 2).sum())

    (mean, var), (mean_lo, var_lo) = moments(slice(20)), moments(slice(20, None))
    err = abs(mean - mean_lo) + abs(var - var_lo)
    if not err <= 1e-8:  # a nan error fails too
        raise ArithmeticError(
            f"max-normal moment quadrature error {err} exceeds 1e-8 (n={n})"
        )
    return mean, var


_MAX_POOL = 2**MAX_FAST_POINTER_BITS


def _check_pool_size(n) -> int:
    n = _count(n, "pool size")
    if n > _MAX_POOL:
        raise ValueError(
            f"pool size must be at most 2^{MAX_FAST_POINTER_BITS}, "
            f"got about 2^{math.log2(n):.6g}"
        )
    return n


def expected_max_normal(n: int) -> float:
    """E[max of n iid standard normals], by Gauss-Legendre quadrature."""
    return _max_normal_moments(_check_pool_size(n))[0]


def var_max_normal(n: int) -> float:
    """Var[max of n iid standard normals], by Gauss-Legendre quadrature."""
    return _max_normal_moments(_check_pool_size(n))[1]


def naive_mse_exact(k: int, rho: float) -> float:
    """Exact risk of the k-sample sign-exchange estimator."""
    k = _count(k, "bit budget")
    _check_correlation(rho)
    return (1.0 - rho * rho) / k


def max_scheme_mse_exact(k: int, rho: float) -> float:
    """Exact risk of the unclamped maximum-pointer estimator at budget k."""
    n = 2 ** _count(k, "bit budget")
    _check_correlation(rho)
    mean = expected_max_normal(n)
    return (1.0 - rho * rho + rho * rho * var_max_normal(n)) / (mean * mean)


# ----------------------------------------------------------------------
# transcripts and result records
# ----------------------------------------------------------------------

SPEAKERS = ("alice", "bob")


@dataclass(frozen=True)
class Message:
    speaker: str
    payload: str  # '0'/'1' characters

    def __post_init__(self):
        if self.speaker not in SPEAKERS:
            raise ValueError(f"speaker must be one of {SPEAKERS}, got {self.speaker!r}")
        if self.payload.strip("01"):
            raise ValueError("payload must consist of '0'/'1' characters")

    @property
    def bit_count(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class Transcript:
    """Ordered messages with speaker labels under a fixed bit budget.

    bits_used, the messages' total bit count, is summed once at
    construction; it takes no part in equality or repr.
    """

    budget: int
    messages: tuple[Message, ...]
    bits_used: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _count(self.budget, "bit budget")
        if self.messages and self.messages[0].speaker != "alice":
            raise ValueError("round 1 belongs to alice")
        bits_used = sum(m.bit_count for m in self.messages)
        if bits_used > self.budget:
            raise ValueError(
                f"transcript spends {bits_used} bits, budget is {self.budget}"
            )
        object.__setattr__(self, "bits_used", bits_used)


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one protocol run; rho_hat is truncated to [-1, 1]."""

    rho_hat: float
    transcript: Transcript
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if not -1.0 <= self.rho_hat <= 1.0:
            raise ValueError(f"estimate {self.rho_hat} escaped [-1, 1]")

    @property
    def bits_used(self) -> int:
        return self.transcript.bits_used


@dataclass(frozen=True)
class RiskReport:
    """Monte Carlo risk aggregates for one (scheme, k, rho) cell."""

    scheme: str
    rho_true: float
    k: int
    trials: int
    mse: float
    bias: float
    variance: float
    ci95_halfwidth: float
    seed: int
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        gap = abs(self.mse - (self.bias**2 + self.variance))
        if not gap <= 1e-9:  # a nan in any of the three fails too
            raise ValueError(
                f"mse {self.mse} inconsistent with bias^2 + variance "
                f"(gap {gap})"
            )


def _bits(value: int, width: int) -> str:
    return format(int(value), f"0{width}b")


_MASK_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask_bits(mask: np.ndarray) -> str:
    """One bit per entry of a boolean array: "1" where it is set."""
    return mask.tobytes().translate(_MASK_DIGITS).decode("ascii")


# ----------------------------------------------------------------------
# literal runners and their stacked kernels
# ----------------------------------------------------------------------
# A kernel runs its protocol on each row of a stack (x[t], y[t] is trial
# t's batch) and returns columns: rho_hat, raw, the flags and the other aux
# values, with -1 for a decoded index of None.

def _within_budget(k: int, bits):
    """bits, each row's transcript width (or one width for every row),
    checked against the budget k as Transcript checks it."""
    spent = int(np.max(bits))
    if spent > k:
        raise ValueError(f"transcript spends {spent} bits, budget is {k}")
    return bits


def _mean_sign_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's mean of a * b, for two rows x n arrays of +-1 values
    (int8 or float64).

    The products sum to 2 agreements - n exactly, so this is the float that
    np.mean(a * b) gives for the row, without the products.
    """
    n = a.shape[1]
    return (2 * np.count_nonzero(a == b, axis=1) - n) / n


def _naive_stack(k: int, x: np.ndarray, y: np.ndarray) -> dict:
    # (2 agree - k) / k lies in [-1, 1] already: raw is its own clip
    raw = _mean_sign_products(x[:, :k], y[:, :k])
    return {"rho_hat": raw, "raw": raw}


def run_naive(k: int, batch: PairBatch) -> EstimateResult:
    """Send k raw signs; estimate by the mean of the k products."""
    return _run("naive", k, batch, {})


def _pool(bits: int, literal: bool) -> int:
    """Pairs a pointer scheme reads: 2^bits, within the guard of its path."""
    if literal and bits > MAX_POINTER_BITS:
        raise ValueError(
            f"a literal run materializes 2^{bits} samples; the guard "
            f"is {MAX_POINTER_BITS} bits"
        )
    if bits > MAX_FAST_POINTER_BITS:
        raise ValueError(
            f"the fast sampler keeps the max-normal law only up to "
            f"2^{MAX_FAST_POINTER_BITS} pointers, got 2^{bits}"
        )
    return 2**bits


def _max_stack(k: int, keys: np.ndarray, read) -> dict:
    n = 2**k
    winner = keys[:, :n].argmax(axis=1)
    _, y = read(np.arange(len(keys)), winner)
    raw = y / expected_max_normal(n)
    return {"rho_hat": np.clip(raw, -1.0, 1.0), "raw": raw, "winner": winner}


def run_max_scheme(k: int, batch: PairBatch) -> EstimateResult:
    """Point at the largest of 2^k x-samples; estimate from its y-partner.

    The unclamped ratio y_W / E[max] is exactly unbiased with variance
    (1 - rho^2 + rho^2 Var[max]) / E[max]^2; the reported rho_hat truncates
    it to [-1, 1], which can only shrink the squared error. The exact raw
    value is kept in aux["raw"].
    """
    return _run("max", k, batch, {})


def _local_prefix_bits(k: int, rho_nominal: float) -> int:
    # Nominal count k (1 - rho^2); the (1 + C_BITS) multiple pays for
    # decoding collisions. Capped at the full index width.
    m = math.ceil(k * (1.0 - rho_nominal**2) * (1.0 + C_BITS))
    return max(1, min(k, m))


def _local_threshold(k: int, rho_nominal: float) -> float:
    return rho_nominal * math.sqrt(2.0 * k * LN2) * (1.0 - C_THRESHOLD)


def _decode(lo: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Bob's decode in each row's prefix bucket, whose marks are the row of
    marks for the indices from lo on: the one marked index, or -1 when none
    or several are marked."""
    return np.where(np.count_nonzero(marks, axis=1) == 1, lo + marks.argmax(axis=1), -1)


def _local_round(k: int, m: np.ndarray, rho_nominal: np.ndarray, keys: np.ndarray,
                 read) -> dict:
    """The local scheme on each row's pool of 2^k pairs, ordered by keys,
    rows x 2^k, and read by read (see _draw_stack): row t with an m[t]-bit
    prefix at nominal rho_nominal[t].

    _local_stack runs this round alone, at one m and nominal; _two_way_stack
    runs it as phase 2, at each row's own. Bob reads only the bucket of the
    winner's prefix, 2^(k - m[t]) pairs, and decodes in it. With the full
    index (m[t] = k) the bucket is the winner, and he marks nothing.
    """
    rows = np.arange(len(keys))
    winner = keys.argmax(axis=1)
    suffix = k - m
    lo = winner >> suffix << suffix
    # every row's bucket, end to end: row t's from start[t] on
    width = 1 << suffix
    end = np.cumsum(width)
    start = end - width
    offset = np.arange(end[-1]) - np.repeat(start, width)
    _, bucket = read(np.repeat(rows, width), np.repeat(lo, width) + offset)
    marks = bucket > np.repeat(_local_threshold(k, rho_nominal), width)
    # the one marked pair's offset, or -1 when none or several are marked
    found = np.where(np.add.reduceat(marks, start) == 1,
                     np.add.reduceat(np.where(marks, offset, 0), start), -1)
    found[suffix == 0] = 0  # the full index: Bob has the winner
    failed = found < 0
    decoded = np.where(failed, -1, lo + found)
    hit = bucket[start + np.maximum(found, 0)]  # the first y where failed, dropped
    raw = np.where(failed, rho_nominal, hit / expected_max_normal(2**k))
    return {
        "rho_hat": np.clip(raw, -1.0, 1.0),
        "raw": raw,
        "decode_failed": failed,
        "winner": winner,
        "decoded": decoded,
        "prefix": winner >> suffix,
        "prefix_bits": m,
    }


def _local_stack(k: int, rho_nominal: float, keys: np.ndarray, read) -> dict:
    m = _within_budget(k, _local_prefix_bits(k, rho_nominal))
    rows = len(keys)
    return _local_round(k, np.full(rows, m), np.full(rows, rho_nominal),
                        keys[:, : 2**k], read)


def run_local_scheme(k: int, rho_nominal: float, batch: PairBatch) -> EstimateResult:
    """Maximum pointer compressed against side information near rho_nominal.

    Alice sends only the m = ceil(k (1 - rho_nominal^2)(1 + C_BITS)) most
    significant bits of her argmax index (capped at k). Bob marks indices
    whose y-value clears rho_nominal sqrt(2 k ln2)(1 - C_THRESHOLD) and
    decodes to the unique marked index matching the prefix. When the prefix
    is the full index the marking step is bypassed. On a zero or multiple
    match he falls back to rho_nominal and sets aux["decode_failed"].
    """
    return _run("local", k, batch, {"rho_nominal": rho_nominal})


# ----------------------------------------------------------------------
# binary block scheme
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlockLayout:
    """Sizes resolved from (rho_tilde, n_block, rho_nominal)."""

    n_block: int
    target_sum: int
    m_blocks: int
    index_bits: int
    prefix_bits: int
    window: float
    center: float
    samples_needed: int

    def marks(self, bob_sums):
        """Bob's marks: which of his block sums lie within window of center."""
        return np.abs(bob_sums - self.center) <= self.window


@lru_cache(maxsize=128, typed=True)
def block_layout(
    rho_tilde: float,
    n_block: int,
    rho_nominal: float,
    guard_bits: int = GUARD_BITS,
) -> BlockLayout:
    """Resolve block counts and message sizes for the binary block scheme.

    The block count m = ceil(EXIST_FACTOR sqrt(n) 2^{n (1 - h((1-rt)/2))})
    makes a block with sum exactly n rho_tilde exist with high probability.
    The prefix length is the nominal n (h((1 - rho rho_tilde)/2) -
    h((1 - rho_tilde)/2)) bits plus the safety overhead, capped at the full
    index width.
    """
    if not 0.0 < rho_tilde <= 1.0:
        raise ValueError(f"anchor correlation must lie in (0, 1], got {rho_tilde}")
    _count(n_block, "block size", 2)
    _count(guard_bits, "guard bits", 0)
    target = rho_tilde * n_block
    target_int = round(target)
    if target_int < 1 or abs(target - target_int) > 1e-9:
        raise ValueError(f"n_block * rho_tilde = {target} must be a positive integer")
    if (target_int - n_block) % 2 != 0:
        raise ValueError(
            f"sum {target_int} unreachable for blocks of {n_block} signs "
            "(parity mismatch)"
        )
    if not -1.0 <= rho_nominal <= 1.0:
        raise ValueError(f"nominal correlation must lie in [-1, 1], got {rho_nominal}")
    h1 = binary_entropy((1.0 - rho_tilde) / 2.0)
    h2 = binary_entropy((1.0 - rho_nominal * rho_tilde) / 2.0)
    overhead = math.log2(EXIST_FACTOR * math.sqrt(n_block))
    m_blocks = max(2, math.ceil(EXIST_FACTOR * math.sqrt(n_block) * 2 ** (n_block * (1.0 - h1))))
    if m_blocks * n_block > 10**8:
        raise ValueError(
            f"layout needs {m_blocks * n_block} samples per run; "
            "reduce n_block or rho_tilde"
        )
    index_bits = max(1, math.ceil(math.log2(m_blocks)))
    prefix_bits = math.ceil(n_block * (h2 - h1) + overhead + guard_bits)
    prefix_bits = max(1, min(index_bits, prefix_bits))
    return BlockLayout(
        n_block=n_block,
        target_sum=target_int,
        m_blocks=m_blocks,
        index_bits=index_bits,
        prefix_bits=prefix_bits,
        window=math.sqrt(n_block),
        center=n_block * rho_nominal * rho_tilde,
        samples_needed=m_blocks * n_block,
    )


def _sign_sums(signs: np.ndarray) -> np.ndarray:
    """Sums of +-1 signs (int8, or a runner's float64, which casts exactly)
    over the last axis, accumulated in int32: int8 sums would wrap at 128,
    and .sum's int64 ones take twice as long."""
    return np.einsum("...i->...", signs, dtype=np.int32, casting="unsafe")


def _block_stack(layout: BlockLayout, rho_tilde: float, x: np.ndarray,
                 y: np.ndarray) -> dict:
    n, m = layout.n_block, layout.m_blocks
    rows = np.arange(len(x))
    xs = x[:, : n * m].reshape(len(x), m, n)
    ys = y[:, : n * m].reshape(len(y), m, n)
    hits = _sign_sums(xs) == layout.target_sum
    j_star = hits.argmax(axis=1)  # 0 when no block hits
    exists = hits[rows, j_star]
    shift = layout.index_bits - layout.prefix_bits
    decoded = j_star
    if shift:
        lo = j_star >> shift << shift
        # the bucket's blocks, padded past the last block with unmarked ones
        at = lo[:, None] + np.arange(1 << shift)
        sums = _sign_sums(ys[rows[:, None], np.minimum(at, m - 1)])
        decoded = _decode(lo, layout.marks(sums) & (at < m))
    decoded = np.where(exists, decoded, -1)
    failed = decoded < 0
    raw = np.where(failed, _mean_sign_products(xs[:, 0], ys[:, 0]),
                   _sign_sums(ys[rows, decoded]) / (n * rho_tilde))
    return {
        "rho_hat": np.clip(raw, -1.0, 1.0),
        "raw": raw,
        "exist_failed": ~exists,
        "decode_failed": exists & failed,
        "anchor_block": j_star,
        "decoded": decoded,
        "prefix": j_star >> shift,
    }


def run_binary_block(
    k: int,
    rho_tilde: float,
    n_block: int,
    batch: PairBatch,
    rho_nominal: float,
    guard_bits: int = GUARD_BITS,
) -> EstimateResult:
    """Anchor on a block whose sign-sum is exactly n_block * rho_tilde.

    Alice scans her blocks for the first one with sum n_block * rho_tilde
    and sends a prefix of its index. Bob marks blocks whose sum lies within
    +-sqrt(n_block) of n_block * rho_nominal * rho_tilde, decodes to the
    unique marked block matching the prefix, and estimates rho by his block
    sum divided by n_block * rho_tilde. If no block has the required sum,
    or decoding is ambiguous, the fallback estimate is the empirical
    correlation of block 1 with the failure flagged in aux.
    """
    return _run("binary_block", k, batch, {"rho_tilde": rho_tilde, "n_block": n_block,
                                           "rho_nominal": rho_nominal,
                                           "guard_bits": guard_bits})


# ----------------------------------------------------------------------
# two-way scheme
# ----------------------------------------------------------------------

def default_phase1_bits(k: int) -> int:
    """Default coarse-phase budget ceil(sqrt(k)): grows, but is o(k)."""
    return math.ceil(math.sqrt(k))


def _phase1_nominal(agree: int, k1: int) -> float:
    """The nominal rho0 that phase 1 gives Bob: agree of k1 signs agreed.

    E[sign(X) sign(Y)] = (2/pi) arcsin(rho) for unit normals; the mean sign
    product (2 agree - k1) / k1 is inverted through it, then capped at
    +-TWO_WAY_NOMINAL_CAP.
    """
    rho0 = math.sin(0.5 * math.pi * ((2 * agree - k1) / k1))
    return min(TWO_WAY_NOMINAL_CAP, max(-TWO_WAY_NOMINAL_CAP, rho0))


def _two_way_stack(k: int, k1: int, keys: np.ndarray, read) -> dict:
    x, y = read(slice(None), slice(k1))  # phase 1's pairs
    agree = np.count_nonzero((x >= 0) == (y >= 0), axis=1)
    # phase 2 runs each row at the nominal of its agreement count
    counts, group = np.unique(agree, return_inverse=True)
    rho0 = np.array([_phase1_nominal(count, k1) for count in counts.tolist()])
    bits = np.array([_local_prefix_bits(k - k1, value) for value in rho0.tolist()])
    rho0, bits = rho0[group], bits[group]
    _within_budget(k, k1 + bits)  # each row's signs and prefix
    stack = _local_round(k - k1, bits, rho0, keys[:, k1 : k1 + 2 ** (k - k1)],
                         lambda rows, cols: read(rows, k1 + cols))
    stack["rho0_hat"] = rho0
    return stack


def run_two_way(k: int, k1: int, batch: PairBatch) -> EstimateResult:
    """Coarse sign exchange, then the local scheme at the estimated rho.

    Phase 1 spends k1 bits on the signs of fresh coordinates; the arcsine
    identity turns the sign-agreement rate into a provisional rho0. Phase 2
    runs the local scheme with budget k - k1 and rho_nominal = rho0
    (truncated into (-0.95, 0.95) so the local scheme's preconditions hold).
    The provisional estimate is treated as common knowledge for phase 2,
    although only Bob can compute it, from his own signs, and Alice's
    prefix length m depends on it. Every message here is Alice's, so the
    k1 + m bits charged leave out Bob's reply that tells her m: at most
    ceil(log2(k1 + 1)) bits, his agreement count (3 bits at the default
    k1 = 4 of k = 10).
    """
    return _run("two_way", k, batch, {"k1": k1})


# ----------------------------------------------------------------------
# vectorized trial samplers (sufficient statistics)
# ----------------------------------------------------------------------

_CHUNK = 1 << 13
# pairs per column of a literal stack: a stack holds the whole trials that
# fit, and at least one
_STACK = 1 << 14


def _chunks(n: int, size: int = _CHUNK):
    """Consecutive slices of at most size entries covering range(n)."""
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def _tail_inverted(count: int, rng: np.random.Generator,
                   tail: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """count normals X = -Phi^{-1}(tail(U)), so tail(U) is X's upper tail mass.

    U is uniform, clipped into (0, 1) for safe logs, and so is tail(U)
    before it is inverted.
    """
    out = np.empty(count)
    for sl in _chunks(count):
        u = np.clip(rng.random(sl.stop - sl.start), 1e-300, 1.0 - 1e-16)
        out[sl] = -ndtri(np.clip(tail(u), 1e-300, 1.0 - 1e-16))
    return out


def _sample_max_normal(n_pool: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Draw max of n_pool iid normals via X = Phi^{-1}(U^{1/n_pool})."""
    return _tail_inverted(trials, rng, lambda u: -np.expm1(np.log(u) / n_pool))


def _sample_tail_normal(q: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw count normals conditioned to exceed the threshold whose upper
    tail mass is q."""
    return _tail_inverted(count, rng, lambda u: q * u)


def _partner_in_place(x: np.ndarray, rho: float, rng: np.random.Generator) -> np.ndarray:
    """x's partner at correlation rho, rho x + sqrt(1 - rho^2) Z for fresh
    unit normals Z, written over x."""
    scale = math.sqrt(1.0 - rho * rho)
    for sl in _chunks(x.size):
        noise = rng.standard_normal(sl.stop - sl.start)
        noise *= scale
        chunk = x[sl]
        chunk *= rho
        chunk += noise
    return x


def _naive_trials(k: int, rho: float, trials: int, rng: np.random.Generator):
    raw = np.empty(trials)
    for sl in _chunks(trials):
        chunk = raw[sl]
        np.multiply(rng.binomial(k, (1.0 + rho) / 2.0, size=chunk.size), 2.0, out=chunk)
        chunk -= k
        chunk /= k
    # (2 agree - k) / k lies in [-1, 1] already: raw is its own clip
    return raw, {"raw": raw}


def _max_trials(k: int, rho: float, trials: int, rng: np.random.Generator):
    n_pool = 2**k
    raw = _partner_in_place(_sample_max_normal(n_pool, trials, rng), rho, rng)
    raw /= expected_max_normal(n_pool)
    return np.clip(raw, -1.0, 1.0), {"raw": raw}


def _local_trials(k: int, rho: float, trials: int, rng: np.random.Generator,
                  rho_nominal, codes=None):
    """Local-scheme trials at nominal rho_nominal.

    Given codes, rho_nominal is an increasing array of distinct nominals
    and trial i runs at rho_nominal[codes[i]]. The caller has checked every
    nominal to lie inside (-1, 1). Mates are marked with the unconditioned
    tail probability (see the module docstring).
    """
    n_pool = 2**k
    mean_max = expected_max_normal(n_pool)
    # x_w, then y_w in place; each group's estimates replace its y_w
    raw = _partner_in_place(_sample_max_normal(n_pool, trials, rng), rho, rng)
    failed = np.zeros(trials, dtype=bool)
    # Trials share k but may differ in nominal rho; group identical
    # nominals so thresholds and prefix widths stay scalar per group. A
    # group no trial has draws nothing.
    for code, value in enumerate(np.asarray(rho_nominal, dtype=float).reshape(-1).tolist()):
        # the group's trials a chunk at a time: slices when it has them all
        if codes is None:
            parts = _chunks(trials)
        else:
            members = np.flatnonzero(codes == code)
            parts = [members[sl] for sl in _chunks(members.size)]
        m = _local_prefix_bits(k, value)
        if m == k:
            for part in parts:
                raw[part] /= mean_max
            continue
        threshold = _local_threshold(k, value)
        # None or one of the marked mates: the first two steps of numpy's
        # binomial inversion, which reads this uniform for q <= 1/2, B q <= 30
        mates = 2.0 ** (k - m) - 1.0
        q = ndtr(-threshold)
        # q reaches 1.0 (k = 600, rho_nominal = -0.364), where a lone mate
        # must still give (mates - 1) log1p(-q) = 0, not 0 * -inf
        log_miss = np.log1p(-q) if q < 1.0 else -np.inf
        p_none = np.exp(mates * log_miss)
        p_one = mates * q * (np.exp((mates - 1.0) * log_miss) if mates > 1.0 else 1.0)
        # trials that decode a wrong mate take its y from the tail, drawn
        # after every mark of the group
        wrong_at = []
        for part in parts:
            y_w = raw[part]
            marked_w = y_w > threshold
            u = rng.random(y_w.size)
            success = marked_w & (u <= p_none)
            wrong = ~marked_w & (u > p_none) & (u - p_none <= p_one)
            failed[part] = ~(success | wrong)
            raw[part] = np.where(success, y_w / mean_max, value)
            if wrong.any():
                wrong_at.append(np.flatnonzero(wrong) + part.start if codes is None else part[wrong])
        for at in wrong_at:
            raw[at] = _sample_tail_normal(q, at.size, rng) / mean_max
    return np.clip(raw, -1.0, 1.0), {"raw": raw, "decode_failed": failed}


# log(m!) for m < 32; _log_binomials takes Stirling's series from there
_SMALL_LOG_FACTORIALS = np.array([math.lgamma(m + 1.0) for m in range(32)])


@lru_cache(maxsize=128)
def _log_binomials(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, from log(m!) to a few units in its last place.

    From m = 32 on, log(m!) is Stirling's series for log Gamma(z), z = m + 1,
    through its 1/z^7 term: the first term left out, 1/(1188 z^9), is below
    2e-17.
    """
    z = np.arange(32.0, n + 1.0) + 1.0
    inv2 = 1.0 / (z * z)
    series = (((-1.0 / 1680.0 * inv2 + 1.0 / 1260.0) * inv2 - 1.0 / 360.0) * inv2
              + 1.0 / 12.0) / z
    stirling = (z - 0.5) * np.log(z) - z + _NORM_PDF_LOGC + series
    log_fact = np.concatenate((_SMALL_LOG_FACTORIALS[: n + 1], stirling))
    log_comb = log_fact[n] - log_fact - log_fact[::-1]
    log_comb.flags.writeable = False  # every caller of the cache shares it
    return log_comb


def _binom_pmf(n: int, p: float) -> np.ndarray:
    """Bin(n, p) pmf over 0..n, exp(log C(n, k) + k log p + (n - k) log1p(-p)).

    At p = 0 or 1 it is a point mass: a zero count times log 0 counts as 0.
    """
    k = np.arange(n + 1)
    if p == 0.0 or p == 1.0:
        return (k == n * p).astype(float)
    return np.exp(_log_binomials(n) + k * math.log(p) + (n - k) * math.log1p(-p))


def _draw_from_weights(weights: np.ndarray, size: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Indices drawn by inverse CDF from nonnegative, unnormalized weights."""
    cdf = np.cumsum(weights)
    idx = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return np.minimum(idx, np.flatnonzero(weights)[-1])


def _block_trials(rho: float, trials: int, rng: np.random.Generator,
                  layout: BlockLayout, rho_tilde: float):
    """Block-scheme trials on layout in O(1) draws each, whatever its block
    count m.

    A block is summarized by (alice sum A, bob sum B, agreement count):
    alice has a = (n + A)/2 ~ Bin(n, 1/2) plus-ones, bob agrees with
    U ~ Bin(a, p) of them and with V ~ Bin(n - a, p) of her minus-ones,
    p = (1 + rho)/2, so B = 2(U - V) - A and the block's empirical
    correlation is (2(U + V) - n)/n. Blocks are iid, so the law of what
    run_binary_block computes needs only these draws per trial:

    * the anchor j*, the first block with A = t = n rho_tilde. With
      p_hit = C(n, (n + t)/2) / 2^n, the first hit in an endless row of
      blocks sits at the geometric G = floor(log(1 - u) / log(1 - p_hit)),
      u uniform on [0, 1). A hit exists, with probability
      1 - (1 - p_hit)^m, exactly when G < m, and then j* = G follows the
      geometric truncated to [0, m).
    * the anchor's U ~ Bin(a*, p), V ~ Bin(n - a*, p) with a* = (n + t)/2,
      giving its bob sum 2(U - V) - t and whether it is marked.
    * block 0, whose correlation is the fallback estimate. Unless it is the
      anchor it missed t: a is drawn from Bin(n, 1/2) conditioned on
      a != a*, then U and V.
    * the other marked blocks of j*'s prefix bucket [s, min(s + 2^shift,
      m)). Blocks before j* (block 0 aside) missed t, so their marks are
      Bin(count, P(mark | A != t)); blocks after j* are unconditioned, so
      Bin(count, P(mark)). Block 0 adds its own mark when it lies in the
      bucket and is not the anchor.
    * with exactly one mark in the bucket, the decoded bob sum: the
      anchor's, block 0's, or a draw from the pmf of its segment restricted
      to marked sums. Any other count is a decode failure.

    Bob's sum has three pmfs: unconditioned it is 2 Bin(n, 1/2) - n; given
    A = t, (B + n)/2 = U + (n - a* - V) is the convolution of Bin(a*, p)
    and Bin(n - a*, 1 - p); given A != t it is their difference,
    P(B) - p_hit P(B | A = t), over 1 - p_hit.
    """
    n, m, t = layout.n_block, layout.m_blocks, layout.target_sum
    p_keep = (1.0 + rho) / 2.0
    a_hit = (n + t) // 2
    shift = layout.index_bits - layout.prefix_bits

    # pmfs over plus counts: alice's a, and bob's (B + n)/2 per block law
    counts = np.arange(n + 1)
    pmf_all = _binom_pmf(n, 0.5)
    p_hit = float(pmf_all[a_hit])
    alice_miss = np.where(counts == a_hit, 0.0, pmf_all)
    bob_hit = np.convolve(
        _binom_pmf(a_hit, p_keep), _binom_pmf(n - a_hit, 1.0 - p_keep)
    )
    bob_miss = np.clip(pmf_all - p_hit * bob_hit, 0.0, None)
    marked = layout.marks(2 * counts - n)

    first_hit = np.floor(np.log1p(-rng.random(trials)) / np.log1p(-p_hit))
    exists = first_hit < m
    j_star = np.where(exists, first_hit, 0).astype(np.int64)
    u_hit = rng.binomial(a_hit, p_keep, size=trials)
    v_hit = rng.binomial(n - a_hit, p_keep, size=trials)
    bob_anchor = 2 * (u_hit - v_hit) - t

    a_miss = _draw_from_weights(alice_miss, trials, rng)
    u_miss = rng.binomial(a_miss, p_keep)
    v_miss = rng.binomial(n - a_miss, p_keep)
    bob_zero = 2 * (u_miss - v_miss) - (2 * a_miss - n)
    anchor_is_zero = exists & (j_star == 0)
    corr_block0 = np.where(
        anchor_is_zero, 2.0 * (u_hit + v_hit) - n, 2.0 * (u_miss + v_miss) - n
    ) / n

    decoded_sum = bob_anchor
    ok = exists
    decode_failed = np.zeros(trials, dtype=bool)
    if shift > 0:
        start = (j_star >> shift) << shift
        stop = np.minimum(start + (1 << shift), m)
        zero_in_bucket = exists & (start == 0) & (j_star > 0)
        # integer 0/1 marks: summed as booleans they would saturate at 1
        marks_anchor = (exists & marked[(bob_anchor + n) // 2]).astype(np.int64)
        marks_zero = (zero_in_bucket & marked[(bob_zero + n) // 2]).astype(np.int64)
        marks_before = rng.binomial(
            np.where(exists, j_star - start - zero_in_bucket, 0),
            min(1.0, (bob_miss * marked).sum() / bob_miss.sum()),
        )
        marks_after = rng.binomial(
            np.where(exists, stop - j_star - 1, 0),
            min(1.0, (pmf_all * marked).sum()),
        )
        total = marks_anchor + marks_zero + marks_before + marks_after
        ok = exists & (total == 1)
        decode_failed = exists & (total != 1)
        decoded_sum = np.where(marks_anchor == 1, bob_anchor, bob_zero)
        for marks, weights in ((marks_before, bob_miss), (marks_after, pmf_all)):
            pick = ok & (marks == 1)
            if pick.any():
                plus = _draw_from_weights(weights * marked, int(pick.sum()), rng)
                decoded_sum[pick] = 2 * plus - n

    raw = np.where(ok, decoded_sum / (n * rho_tilde), corr_block0)
    return np.clip(raw, -1.0, 1.0), {
        "raw": raw,
        "exist_failed": ~exists,
        "decode_failed": decode_failed,
    }


def _two_way_trials(k: int, rho: float, trials: int, rng: np.random.Generator,
                    k1: int):
    p_agree = 0.5 + math.asin(rho) / math.pi
    chunks = _chunks(trials)
    codes = np.empty(trials, dtype=np.min_scalar_type(k1))
    for sl in chunks:
        codes[sl] = rng.binomial(k1, p_agree, size=sl.stop - sl.start)
    # rho0 rises with the agreement count, so np.unique keeps the counts'
    # order and merges the counts that the cap makes equal
    lo = int(codes.min())
    rho0, group = np.unique(
        [_phase1_nominal(agree, k1) for agree in range(lo, int(codes.max()) + 1)],
        return_inverse=True,
    )
    for sl in chunks:  # agreement count -> its group, in place
        codes[sl] = group[codes[sl] - lo]
    return _local_trials(k - k1, rho, trials, rng, rho0, codes)


# ----------------------------------------------------------------------
# risk estimation
# ----------------------------------------------------------------------

def _naive_plan(k: int, p: dict, literal: bool) -> dict:
    # a literal run materializes k pairs; the fast rng.binomial takes int64
    bound = 2**MAX_POINTER_BITS if literal else 2**63 - 1
    if k > bound:
        path = "literal" if literal else "fast"
        raise ValueError(f"a {path} naive budget is at most {bound} bits")
    return {"pairs": k}


def _local_plan(k: int, p: dict, literal: bool) -> dict:
    if not -1.0 < p["rho_nominal"] < 1.0:
        raise ValueError(
            f"nominal correlation must lie in (-1, 1), got {p['rho_nominal']}"
        )
    return {**p, "pairs": _pool(k, literal)}


def _block_plan(k: int, p: dict, literal: bool) -> dict:
    layout = block_layout(p["rho_tilde"], p["n_block"], p["rho_nominal"], p["guard_bits"])
    if layout.prefix_bits > k:
        raise ValueError(f"scheme needs {layout.prefix_bits} bits, budget is {k}")
    return {**p, "layout": layout, "pairs": layout.samples_needed}


def _two_way_plan(k: int, p: dict, literal: bool) -> dict:
    if not 1 <= p["k1"] < k:
        raise ValueError(
            f"phase 1 budget must satisfy 1 <= k1 < k, got k1={p['k1']}, k={k}"
        )
    return {**p, "pairs": p["k1"] + _pool(k - p["k1"], literal)}


@dataclass(frozen=True)
class Scheme:
    """One row of SCHEMES: everything each path needs to know about a scheme.

    params maps each parameter the scheme takes to its default: a number,
    a function of (k, rho), or None for a required parameter; counts names
    the ones that are integer counts. The callables take a cell's budget k.
    plan(k, p, literal) validates the cell with its resolved params p and
    returns the cell's plan: p, "pairs" (the pairs one literal trial reads)
    and what the kernel and sampler share (the block row's BlockLayout,
    "layout"), so it is worked out once per cell. stack(k, a, b, plan) is
    the literal kernel, returning the columns of a stack (a, b) whose row t
    holds trial t's batch, as _draw_stack gives it: a binary stack's x and
    y, a gaussian one's order keys and reader. message(k, x, columns, plan) gives
    Alice's payloads on a one-row stack whose batch has x-column x, and aux
    names the columns a runner reports; the flags among them are the rates
    a literal cell reports. sample(k, rho, trials, rng, plan) is the fast
    sampler. The table's entries look their kernels and samplers up when
    called, so wrappers installed on this module's functions see every call.
    """

    family: str
    params: dict
    plan: Callable[[int, dict, bool], dict]
    stack: Callable[[int, np.ndarray, np.ndarray, dict], dict]
    message: Callable[[int, np.ndarray, dict, dict], tuple]
    aux: tuple
    sample: Callable[..., tuple]
    counts: tuple = ()


def _at_rho(k: int, rho: float) -> float:
    return rho


def _prefix(columns: dict) -> str:
    """A one-row stack's index prefix, at its own width."""
    return _bits(columns["prefix"][0], columns["prefix_bits"][0])


SCHEMES = {
    "naive": Scheme(
        family="binary",
        params={},
        plan=_naive_plan,
        stack=lambda k, x, y, plan: _naive_stack(k, x, y),
        message=lambda k, x, columns, plan: (_mask_bits(x[:k] > 0),),
        aux=("raw",),
        sample=lambda k, rho, trials, rng, plan: _naive_trials(k, rho, trials, rng),
    ),
    "max": Scheme(
        family="gaussian",
        params={},
        plan=lambda k, p, literal: {"pairs": _pool(k, literal)},
        stack=lambda k, keys, read, plan: _max_stack(k, keys, read),
        message=lambda k, x, columns, plan: (_bits(columns["winner"][0], k),),
        aux=("raw", "winner"),
        sample=lambda k, rho, trials, rng, plan: _max_trials(k, rho, trials, rng),
    ),
    "local": Scheme(
        family="gaussian",
        params={"rho_nominal": _at_rho},
        plan=_local_plan,
        stack=lambda k, keys, read, plan: _local_stack(k, plan["rho_nominal"], keys, read),
        message=lambda k, x, columns, plan: (_prefix(columns),),
        aux=("raw", "decode_failed", "winner", "decoded"),
        sample=lambda k, rho, trials, rng, plan: _local_trials(
            k, rho, trials, rng, plan["rho_nominal"]),
    ),
    "binary_block": Scheme(
        family="binary",
        params={
            "rho_tilde": None,
            "n_block": None,
            "rho_nominal": _at_rho,
            "guard_bits": GUARD_BITS,
        },
        counts=("n_block", "guard_bits"),
        plan=_block_plan,
        stack=lambda k, x, y, plan: _block_stack(plan["layout"], plan["rho_tilde"], x, y),
        message=lambda k, x, columns, plan: (
            _bits(columns["prefix"][0], plan["layout"].prefix_bits),),
        aux=("raw", "exist_failed", "decode_failed", "anchor_block", "decoded"),
        sample=lambda k, rho, trials, rng, plan: _block_trials(
            rho, trials, rng, plan["layout"], plan["rho_tilde"]),
    ),
    "two_way": Scheme(
        family="gaussian",
        params={"k1": lambda k, rho: default_phase1_bits(k)},
        counts=("k1",),
        plan=_two_way_plan,
        stack=lambda k, keys, read, plan: _two_way_stack(k, plan["k1"], keys, read),
        message=lambda k, x, columns, plan: (_mask_bits(x[: plan["k1"]] >= 0),
                                             _prefix(columns)),
        aux=("raw", "rho0_hat", "decode_failed"),
        sample=lambda k, rho, trials, rng, plan: _two_way_trials(
            k, rho, trials, rng, plan["k1"]),
    ),
}
SCHEME_NAMES = tuple(SCHEMES)


@dataclass(frozen=True)
class SchemeConfig:
    """Which scheme to run and with what knobs.

    k is an integer budget (a numpy integer is stored as int). The params
    dict takes, by scheme, the parameters of its SCHEMES row: local
    rho_nominal (default rho); two_way k1 (default ceil(sqrt(k)));
    binary_block rho_tilde and n_block (both required), rho_nominal
    (default rho) and guard_bits (default GUARD_BITS). A value of None
    means the default. Setting use_batches runs the literal protocol on
    drawn samples, a stack of whole trials at a time, instead of the
    sufficient-statistic sampler (much slower; the same law but for the
    local marks, see the module docstring).
    """

    scheme: str
    k: int
    params: dict = field(default_factory=dict)
    use_batches: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(
                f"scheme must be one of {SCHEME_NAMES}, got {self.scheme!r}"
            )
        object.__setattr__(self, "k", _count(self.k, "bit budget"))
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a dict, got {type(self.params).__name__}")
        if not isinstance(self.use_batches, bool):
            raise ValueError(f"use_batches must be True or False, got {self.use_batches!r}")


def _plan(name: str, k: int, given: dict, rho, literal: bool) -> dict:
    """The plan of a cell of SCHEMES[name] at budget k (see Scheme.plan).

    given holds the params set; one given as None, or left out, takes its
    default at the true correlation rho. A runner's cell has no rho (None),
    so it takes no defaults and must give every param.
    """
    if rho is not None:
        _check_correlation(rho)
    scheme = SCHEMES[name]
    for key, value in given.items():
        integral = key in scheme.counts
        if value is not None and not _is_number(value, integral):
            kind = "an integer" if integral else "a finite number"
            raise ValueError(f"parameter {key!r} must be {kind}, got {value!r}")
        if key not in scheme.params:
            raise ValueError(
                f"scheme {name!r} takes no parameter {key!r} "
                f"(it takes: {', '.join(scheme.params) or 'none'})"
            )
    params = {}
    for key, default in scheme.params.items():
        value = given.get(key)
        if value is None:
            if default is None or rho is None:
                raise ValueError(f"scheme {name!r} needs parameter {key!r}")
            value = default(k, rho) if callable(default) else default
        # a numpy count would wrap in 2**(k - k1)
        params[key] = int(value) if key in scheme.counts else value
    return scheme.plan(k, params, literal)


def check_preconditions(config: SchemeConfig, rho_true: float) -> int:
    """Validate one (scheme, k, rho) cell without drawing a single sample.

    Returns the pair count one batch-mode trial would consume. Raises
    ValueError whenever the cell cannot run: a true correlation that is
    not a finite number in [-1, 1], a missing or unknown parameter, a
    value that is not a finite number (or not an integer, for the counts
    of the scheme's row: n_block, k1 and guard_bits), nominal correlation
    outside (-1, 1), block layout infeasible for the budget, phase-1 budget
    out of range, a pointer pool past the MAX_POINTER_BITS guard (literal)
    or the MAX_FAST_POINTER_BITS bound (fast sampler), or a naive budget
    past the same literal guard or the int64 range of its fast binomial
    draw. The runners check their cells through the same plan, so they
    reject the same cells and params.
    """
    return _plan(config.scheme, config.k, config.params, rho_true,
                 config.use_batches)["pairs"]


def _run(name: str, k: int, batch: PairBatch, given: dict) -> EstimateResult:
    """The literal run of SCHEMES[name] at budget k with every param given:
    the row's kernel on batch as a one-row stack, after the checks of its
    family, its budget and its plan, and of the pairs the plan reads."""
    scheme = SCHEMES[name]
    if batch.family != scheme.family:
        raise ValueError(f"{name} expects a {scheme.family} batch, got {batch.family}")
    k = _count(k, "bit budget")
    plan = _plan(name, k, given, None, True)
    if len(batch) < plan["pairs"]:
        raise ValueError(f"need at least {plan['pairs']} pairs, batch has {len(batch)}")
    x, y = pairs = batch.x[None], batch.y[None]
    if scheme.family == "gaussian":  # x orders itself; Bob reads by indexing
        pairs = x, lambda rows, cols: (x[rows, cols], y[rows, cols])
    columns = scheme.stack(k, *pairs, plan)
    aux = {key: columns[key][0].item() for key in scheme.aux}
    if aux.get("decoded", 0) < 0:
        aux["decoded"] = None
    messages = tuple([Message("alice", payload)
                      for payload in scheme.message(k, batch.x, columns, plan)])
    return EstimateResult(rho_hat=columns["rho_hat"][0].item(), aux=aux,
                          transcript=Transcript(budget=k, messages=messages))


_FLAGS = ("decode_failed", "exist_failed")


def _sample_moments(values: np.ndarray, center: float, work: np.ndarray):
    """Moments of values and of its squared errors e^2, e = values - center.

    Returns (mean of values, sum of squared deviations from that mean,
    mean of e, mean of e^2, sum of squared deviations of e^2 from its mean),
    each a float. work is a scratch array of the same length. Every sum is
    np.add.reduce over a whole array, as ndarray.mean, var and std reduce,
    so the moments and the variances and deviations taken from them are
    the floats those methods give, to the bit.
    """
    n = values.size
    mean = float(np.add.reduce(values) / n)
    np.subtract(values, mean, out=work)
    work *= work
    spread = float(np.add.reduce(work))
    np.subtract(values, center, out=work)
    error_mean = float(np.add.reduce(work) / n)
    work *= work
    sq_mean = float(np.add.reduce(work) / n)
    work -= sq_mean
    work *= work
    return mean, spread, error_mean, sq_mean, float(np.add.reduce(work))


def estimate_risk(config: SchemeConfig, rho_true: float, trials: int,
                  master_seed: int) -> RiskReport:
    """Monte Carlo squared-error risk of a scheme at one (k, rho) cell.

    The cell draws from one substream, tagged by scheme, k, rho's float
    value (0, 0.0 and np.float64(0.0) share it) and whether it runs the
    literal protocol, so its report is reproducible bit-for-bit for a fixed
    (config, rho_true, trials, seed). Literal trial t runs on the t-th
    consecutive batch of pairs drawn from it (a binary pair is one raw
    generator word, a gaussian pair two), so the estimates do not
    depend on the stack size. Literal trials run in stacks, each one draw
    and one kernel call, and an error raised inside a stack names the
    stack's trials ("trials 16-31: ...").
    """
    trials = _count(trials, "trials", 100)
    plan = _plan(config.scheme, config.k, config.params, rho_true, config.use_batches)
    scheme = SCHEMES[config.scheme]
    mode = "literal/" if config.use_batches else ""
    tag = f"risk/{mode}{config.scheme}/k={config.k}/rho={float(rho_true)!r}"
    rng = substream(master_seed, tag)

    if config.use_batches:
        model = CorrelationModel(scheme.family, rho_true)
        rho_hats = np.empty(trials)
        # the raw and flag columns among the row's aux
        aux = {key: np.empty(trials, dtype=bool if key in _FLAGS else float)
               for key in ("raw", *_FLAGS) if key in scheme.aux}
        for sl in _chunks(trials, max(1, _STACK // plan["pairs"])):
            try:
                drawn = _draw_stack(model, plan["pairs"], sl.stop - sl.start, rng)
                stack = scheme.stack(config.k, *drawn, plan)
            except ValueError as exc:
                raise ValueError(f"trials {sl.start}-{sl.stop - 1}: {exc}") from exc
            rho_hats[sl] = stack["rho_hat"]
            for key, column in aux.items():
                column[sl] = stack[key]
    else:
        rho_hats, aux = scheme.sample(config.k, rho_true, trials, rng, plan)

    work = np.empty(trials)
    _, spread, bias, mse, sq_spread = _sample_moments(rho_hats, rho_true, work)
    variance = spread / trials
    ci95 = 1.96 * math.sqrt(sq_spread / (trials - 1)) / math.sqrt(trials)
    mean, spread, _, sq_mean, sq_spread = _sample_moments(aux["raw"], rho_true, work)
    extras = {
        "raw_mean": mean,
        "raw_mse": sq_mean,
        "raw_se_mean": math.sqrt(spread / (trials - 1)) / math.sqrt(trials),
        "raw_mse_ci95": 1.96 * math.sqrt(sq_spread / (trials - 1)) / math.sqrt(trials),
    }
    for flag in _FLAGS:
        if flag in aux:
            extras[f"{flag.removesuffix('ed')}_rate"] = float(np.mean(aux[flag]))
    return RiskReport(
        scheme=config.scheme,
        rho_true=float(rho_true),
        k=config.k,
        trials=trials,
        mse=mse,
        bias=bias,
        variance=variance,
        ci95_halfwidth=ci95,
        seed=master_seed,
        extras=extras,
    )
