"""One-way and two-way estimation schemes under a k-bit budget.

Each scheme exists in two forms:

* a batch runner (``run_*``) that executes the protocol literally on a
  ``PairBatch``, producing a ``Transcript`` with exact bit accounting, and
* a vectorized trial sampler used by ``estimate_risk`` that draws the
  scheme's sufficient statistics directly (for example the maximum of
  2^k unit normals via its inverse CDF) at a fraction of the cost. It
  follows the runner's law, except that the local sampler (and two_way's
  phase 2 through it) marks bucket mates with the unconditioned tail
  probability, though their x lies below the winner's: decode failure
  0.5606 against 0.5774 exact at k = 10, rho = rho_nominal = 0.9.

Tests cross-validate the two forms against each other; risk sweeps default
to the sampler so Monte Carlo sizes in the hundreds of thousands stay cheap.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr, ndtri, xlog1py, xlogy

from .infotheory import _check_correlation, _is_number, binary_entropy
from .rng import substream
from .sources import CorrelationModel, PairBatch, gen_pairs

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

LN2 = math.log(2.0)
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


# ----------------------------------------------------------------------
# quadrature oracles for the maximum of N unit normals
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _max_normal_moment(n: int, power: int) -> float:
    """integral of x^power n phi(x) Phi(x)^(n-1) dx to ~1e-10 abs error."""
    if n == 1 and power == 1:
        return 0.0
    log_n = math.log(n)
    peak = math.sqrt(2.0 * log_n) if n > 1 else 0.0
    lo, hi = -12.0, peak + 12.0

    def integrand(x):
        return x**power * math.exp(
            log_n + (-x**2 / 2.0 - _NORM_PDF_LOGC) + (n - 1) * log_ndtr(x)
        )

    # imported here, not at module level: scipy.integrate's import costs about
    # 0.3 s, which only pointer-scheme moments need
    from scipy import integrate

    points = [peak] if lo < peak < hi else None
    value, err = integrate.quad(
        integrand, lo, hi, points=points, limit=400, epsabs=1e-11, epsrel=1e-11
    )
    if not err <= 1e-8:  # a nan error fails too
        raise ArithmeticError(
            f"max-normal moment quadrature error {err} exceeds 1e-8 (n={n})"
        )
    return float(value)


_MAX_POOL = 2**MAX_FAST_POINTER_BITS


def _check_pool_size(n) -> int:
    if not _is_number(n, integral=True) or n < 1:
        raise ValueError(f"pool size must be a positive integer, got {n!r}")
    if n > _MAX_POOL:
        raise ValueError(
            f"pool size must be at most 2^{MAX_FAST_POINTER_BITS}, "
            f"got about 2^{math.log2(n):.6g}"
        )
    return int(n)


def expected_max_normal(n: int) -> float:
    """E[max of n iid standard normals], by adaptive quadrature."""
    return _max_normal_moment(_check_pool_size(n), 1)


def var_max_normal(n: int) -> float:
    """Var[max of n iid standard normals], by adaptive quadrature."""
    n = _check_pool_size(n)
    mean = _max_normal_moment(n, 1)
    return _max_normal_moment(n, 2) - mean * mean


def naive_mse_exact(k: int, rho: float) -> float:
    """Exact risk of the k-sample sign-exchange estimator."""
    return (1.0 - rho * rho) / k


def max_scheme_mse_exact(k: int, rho: float) -> float:
    """Exact risk of the unclamped maximum-pointer estimator at budget k."""
    n = 2**int(k)
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
        if self.budget < 1:
            raise ValueError(f"bit budget must be positive, got {self.budget}")
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


def _clamp(value: float) -> float:
    return float(min(1.0, max(-1.0, value)))


def _bits(value: int, width: int) -> str:
    return format(int(value), f"0{width}b")


_MASK_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask_bits(mask: np.ndarray) -> str:
    """One bit per entry of a boolean array: "1" where it is set."""
    return mask.tobytes().translate(_MASK_DIGITS).decode("ascii")


# ----------------------------------------------------------------------
# batch runners
# ----------------------------------------------------------------------

def _mean_sign_product(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of a * b over two sign columns (+-1 floats, or booleans for +-1).

    The products sum to 2 agreements - n exactly, so this is the float that
    np.mean(a * b) gives, without the products.
    """
    n = len(a)
    return (2 * int(np.count_nonzero(a == b)) - n) / n


def _checked_scheme(scheme: str, k: int, batch: PairBatch) -> Scheme:
    """SCHEMES[scheme], checked to read batch's family at a positive budget k."""
    entry = SCHEMES[scheme]
    if batch.family != entry.family:
        raise ValueError(f"{scheme} expects a {entry.family} batch, got {batch.family}")
    if k < 1:
        raise ValueError(f"bit budget must be positive, got {k}")
    return entry


def _fits(needed: int, batch: PairBatch) -> int:
    """needed, checked to be at most the pairs batch holds."""
    if len(batch) < needed:
        raise ValueError(f"need at least {needed} pairs, batch has {len(batch)}")
    return needed


def _checked_pairs(scheme: str, k: int, p: dict, batch: PairBatch) -> int:
    """The pairs a literal run of SCHEMES[scheme] reads, checked against batch."""
    return _fits(_checked_scheme(scheme, k, batch).samples_needed(k, p, True), batch)


def run_naive(k: int, batch: PairBatch) -> EstimateResult:
    """Send k raw signs; estimate by the mean of the k products."""
    _checked_pairs("naive", k, {}, batch)
    x = batch.x[:k]
    raw = _mean_sign_product(x, batch.y[:k])
    payload = _mask_bits(x > 0)
    transcript = Transcript(budget=k, messages=(Message("alice", payload),))
    return EstimateResult(
        rho_hat=_clamp(raw),
        aux={"raw": raw},
        transcript=transcript,
    )


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


def run_max_scheme(k: int, batch: PairBatch) -> EstimateResult:
    """Point at the largest of 2^k x-samples; estimate from its y-partner.

    The unclamped ratio y_W / E[max] is exactly unbiased with variance
    (1 - rho^2 + rho^2 Var[max]) / E[max]^2; the reported rho_hat truncates
    it to [-1, 1], which can only shrink the squared error. The exact raw
    value is kept in aux["raw"].
    """
    n = _checked_pairs("max", k, {}, batch)
    winner = int(batch.x[:n].argmax())
    raw = float(batch.y[winner] / expected_max_normal(n))
    transcript = Transcript(
        budget=k, messages=(Message("alice", _bits(winner, k)),)
    )
    return EstimateResult(
        rho_hat=_clamp(raw),
        aux={"raw": raw, "winner": winner},
        transcript=transcript,
    )


def _local_prefix_bits(k: int, rho_nominal: float) -> int:
    # Nominal count k (1 - rho^2); the (1 + C_BITS) multiple pays for
    # decoding collisions. Capped at the full index width.
    m = math.ceil(k * (1.0 - rho_nominal**2) * (1.0 + C_BITS))
    return max(1, min(k, m))


def _local_threshold(k: int, rho_nominal: float) -> float:
    return rho_nominal * math.sqrt(2.0 * k * LN2) * (1.0 - C_THRESHOLD)


def _local_round(k: int, rho_nominal: float, x: np.ndarray, y: np.ndarray):
    """The local scheme on a checked pool of 2^k pairs: (message, rho_hat, aux).

    run_local_scheme sends this round alone; run_two_way sends it as phase 2.
    """
    winner = int(x.argmax())
    m = _local_prefix_bits(k, rho_nominal)
    prefix = winner >> (k - m)
    if m == k:
        decoded: int | None = winner
    else:
        lo = prefix << (k - m)
        marked = y[lo : lo + (1 << (k - m))] > _local_threshold(k, rho_nominal)
        if np.count_nonzero(marked) == 1:
            decoded = lo + int(marked.argmax())
        else:
            decoded = None

    if decoded is None:
        raw = rho_hat = rho_nominal
    else:
        raw = float(y[decoded] / expected_max_normal(len(x)))
        rho_hat = _clamp(raw)
    aux = {
        "raw": raw,
        "decode_failed": decoded is None,
        "winner": winner,
        "decoded": decoded,
    }
    return Message("alice", _bits(prefix, m)), rho_hat, aux


def run_local_scheme(k: int, rho_nominal: float, batch: PairBatch) -> EstimateResult:
    """Maximum pointer compressed against side information near rho_nominal.

    Alice sends only the m = ceil(k (1 - rho_nominal^2)(1 + C_BITS)) most
    significant bits of her argmax index (capped at k). Bob marks indices
    whose y-value clears rho_nominal sqrt(2 k ln2)(1 - C_THRESHOLD) and
    decodes to the unique marked index matching the prefix. When the prefix
    is the full index the marking step is bypassed. On a zero or multiple
    match he falls back to rho_nominal and sets aux["decode_failed"].
    """
    n = _checked_pairs("local", k, {"rho_nominal": rho_nominal}, batch)
    message, rho_hat, aux = _local_round(k, rho_nominal, batch.x[:n], batch.y[:n])
    return EstimateResult(
        rho_hat=rho_hat,
        aux=aux,
        transcript=Transcript(budget=k, messages=(message,)),
    )


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
    if n_block < 2:
        raise ValueError(f"block size must be at least 2, got {n_block}")
    target = rho_tilde * n_block
    target_int = round(target)
    if abs(target - target_int) > 1e-9:
        raise ValueError(
            f"n_block * rho_tilde = {target} must be an integer"
        )
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


def _fitted_layout(k: int, rho_tilde: float, n_block: int, rho_nominal: float,
                   guard_bits: int) -> BlockLayout:
    """The block layout, checked to fit a k-bit budget."""
    layout = block_layout(rho_tilde, n_block, rho_nominal, guard_bits)
    if layout.prefix_bits > k:
        raise ValueError(f"scheme needs {layout.prefix_bits} bits, budget is {k}")
    return layout


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
    # _checked_pairs, keeping the layout that the scheme's samples_needed reads
    _checked_scheme("binary_block", k, batch)
    layout = _fitted_layout(k, rho_tilde, n_block, rho_nominal, guard_bits)
    _fits(layout.samples_needed, batch)
    n, m = layout.n_block, layout.m_blocks
    shift = layout.index_bits - layout.prefix_bits
    xs = batch.x[: n * m].reshape(m, n)
    ys = batch.y[: n * m].reshape(m, n)
    hits = np.einsum("ij->i", xs) == layout.target_sum
    j_star = int(hits.argmax())  # 0 when no block hits
    exist_failed = not hits[j_star]

    decoded: int | None = None
    if not exist_failed:
        if shift == 0:
            decoded = j_star
        else:
            # only the blocks of the anchor's prefix bucket can match
            lo = j_star >> shift << shift
            sums_b = ys[lo : lo + (1 << shift)].sum(axis=1)
            marked = np.abs(sums_b - layout.center) <= layout.window
            if np.count_nonzero(marked) == 1:
                decoded = lo + int(marked.argmax())
    decode_failed = not exist_failed and decoded is None

    if decoded is None:
        raw = _mean_sign_product(xs[0], ys[0])
    else:
        raw = float(ys[decoded].sum() / (n * rho_tilde))

    bits = layout.prefix_bits
    transcript = Transcript(
        budget=k, messages=(Message("alice", _bits(j_star >> shift, bits)),)
    )
    return EstimateResult(
        rho_hat=_clamp(raw),
        aux={
            "raw": raw,
            "exist_failed": exist_failed,
            "decode_failed": decode_failed,
            "anchor_block": j_star,
            "decoded": decoded,
        },
        transcript=transcript,
    )


# ----------------------------------------------------------------------
# two-way scheme
# ----------------------------------------------------------------------

def default_phase1_bits(k: int) -> int:
    """Default coarse-phase budget ceil(sqrt(k)): grows, but is o(k)."""
    return math.ceil(math.sqrt(k))


def _phase1_estimate(mean_product: float) -> float:
    # E[sign(X) sign(Y)] = (2/pi) arcsin(rho) for unit normals; invert it.
    return math.sin(0.5 * math.pi * mean_product)


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
    n2 = _checked_pairs("two_way", k, {"k1": k1}, batch) - k1
    k2 = k - k1
    sign_x = batch.x[:k1] >= 0
    rho0 = _phase1_estimate(_mean_sign_product(sign_x, batch.y[:k1] >= 0))
    rho0 = min(TWO_WAY_NOMINAL_CAP, max(-TWO_WAY_NOMINAL_CAP, rho0))

    message, rho_hat, local = _local_round(
        k2, rho0, batch.x[k1 : k1 + n2], batch.y[k1 : k1 + n2]
    )
    transcript = Transcript(
        budget=k, messages=(Message("alice", _mask_bits(sign_x)), message)
    )
    return EstimateResult(
        rho_hat=rho_hat,
        aux={
            "raw": local["raw"],
            "rho0_hat": rho0,
            "decode_failed": local["decode_failed"],
        },
        transcript=transcript,
    )


# ----------------------------------------------------------------------
# vectorized trial samplers (sufficient statistics)
# ----------------------------------------------------------------------

def _uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    # Uniform on (0, 1), bounded away from the endpoints for safe logs.
    return np.clip(rng.random(size), 1e-300, 1.0 - 1e-16)


def _sample_max_normal(n_pool: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Draw max of n_pool iid normals via X = Phi^{-1}(U^{1/n_pool})."""
    u = _uniform_open(rng, trials)
    upper_tail = -np.expm1(np.log(u) / n_pool)
    upper_tail = np.clip(upper_tail, 1e-300, 1.0 - 1e-16)
    return -ndtri(upper_tail)


def _sample_tail_normal(threshold: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw normals conditioned to exceed threshold."""
    q = ndtr(-threshold)
    u = _uniform_open(rng, count)
    return -ndtri(np.clip(q * u, 1e-300, 1.0 - 1e-16))


def _naive_trials(k: int, rho: float, trials: int, rng: np.random.Generator):
    agree = rng.binomial(k, (1.0 + rho) / 2.0, size=trials)
    raw = (2.0 * agree - k) / k
    return np.clip(raw, -1.0, 1.0), {"raw": raw}


def _max_trials(k: int, rho: float, trials: int, rng: np.random.Generator):
    n_pool = 2**k
    x_w = _sample_max_normal(n_pool, trials, rng)
    noise = rng.standard_normal(trials)
    raw = (rho * x_w + math.sqrt(1.0 - rho * rho) * noise) / expected_max_normal(n_pool)
    return np.clip(raw, -1.0, 1.0), {"raw": raw}


def _local_trials(k: int, rho: float, trials: int, rng: np.random.Generator,
                  rho_nominal):
    """Local-scheme trials; rho_nominal may be a scalar or per-trial array.

    The caller has checked every nominal to lie inside (-1, 1). Mates are
    marked with the unconditioned tail probability (see the module docstring).
    """
    nominal = np.broadcast_to(np.asarray(rho_nominal, dtype=float), (trials,))
    n_pool = 2**k
    mean_max = expected_max_normal(n_pool)
    x_w = _sample_max_normal(n_pool, trials, rng)
    y_w = rho * x_w + math.sqrt(1.0 - rho * rho) * rng.standard_normal(trials)

    raw = np.array(nominal)  # fallback default
    failed = np.zeros(trials, dtype=bool)
    # Trials share k but may differ in nominal rho; group identical
    # nominals so thresholds and prefix widths stay scalar per group.
    for value in np.unique(nominal):
        sel = np.nonzero(nominal == value)[0]
        m = _local_prefix_bits(k, float(value))
        if m == k:
            raw[sel] = y_w[sel] / mean_max
            continue
        threshold = _local_threshold(k, float(value))
        marked_w = y_w[sel] > threshold
        # None or one of the marked mates: the first two steps of numpy's
        # binomial inversion, which reads this uniform for q <= 1/2, B q <= 30
        mates = 2.0 ** (k - m) - 1.0
        q = ndtr(-threshold)
        p_none = np.exp(xlog1py(mates, -q))
        p_one = mates * q * np.exp(xlog1py(mates - 1.0, -q))
        u = rng.random(sel.size)
        success = marked_w & (u <= p_none)
        wrong = ~marked_w & (u > p_none) & (u - p_none <= p_one)
        fail = ~(success | wrong)
        raw[sel[success]] = y_w[sel[success]] / mean_max
        n_wrong = int(wrong.sum())
        if n_wrong:
            raw[sel[wrong]] = _sample_tail_normal(threshold, n_wrong, rng) / mean_max
        failed[sel[fail]] = True
    return np.clip(raw, -1.0, 1.0), {"raw": raw, "decode_failed": failed}


def _binom_pmf(n: int, p: float) -> np.ndarray:
    """Bin(n, p) pmf over 0..n, by the log-space formula of scipy's binom."""
    k = np.arange(n + 1)
    log_comb = gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
    return np.exp(log_comb + xlogy(k, p) + xlog1py(n - k, -p))


def _draw_from_weights(weights: np.ndarray, size: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Indices drawn by inverse CDF from nonnegative, unnormalized weights."""
    cdf = np.cumsum(weights)
    idx = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return np.minimum(idx, np.flatnonzero(weights)[-1])


def _block_trials(
    rho: float,
    trials: int,
    rng: np.random.Generator,
    rho_tilde: float,
    n_block: int,
    rho_nominal: float,
    guard_bits: int,
):
    """Block-scheme trials in O(1) draws each, whatever the block count m.

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
    layout = block_layout(rho_tilde, n_block, rho_nominal, guard_bits)
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
    marked = np.abs((2 * counts - n) - layout.center) <= layout.window

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
    agrees = rng.binomial(k1, p_agree, size=trials)
    mean_products = (2.0 * agrees - k1) / k1
    rho0 = np.clip(
        np.sin(0.5 * math.pi * mean_products),
        -TWO_WAY_NOMINAL_CAP,
        TWO_WAY_NOMINAL_CAP,
    )
    rho_hat, aux = _local_trials(k - k1, rho, trials, rng, rho0)
    aux = dict(aux)
    aux["rho0_hat"] = rho0
    return rho_hat, aux


# ----------------------------------------------------------------------
# risk estimation
# ----------------------------------------------------------------------

def _naive_pairs(k: int, p: dict, literal: bool) -> int:
    # a literal run materializes k pairs; the fast rng.binomial takes int64
    bound = 2**MAX_POINTER_BITS if literal else 2**63 - 1
    if k > bound:
        path = "literal" if literal else "fast"
        raise ValueError(f"a {path} naive budget is at most {bound} bits")
    return k


def _local_pairs(k: int, p: dict, literal: bool) -> int:
    if not -1.0 < p["rho_nominal"] < 1.0:
        raise ValueError(
            f"nominal correlation must lie in (-1, 1), got {p['rho_nominal']}"
        )
    return _pool(k, literal)


def _two_way_pairs(k: int, p: dict, literal: bool) -> int:
    if not 1 <= p["k1"] < k:
        raise ValueError(
            f"phase 1 budget must satisfy 1 <= k1 < k, got k1={p['k1']}, k={k}"
        )
    return p["k1"] + _pool(k - p["k1"], literal)


@dataclass(frozen=True)
class Scheme:
    """Everything the risk harness needs to know about one scheme.

    params maps each parameter the scheme takes to its default: a number,
    a function of (k, rho), or None for a required parameter. The other
    fields take a cell's budget k and its resolved params p:
    samples_needed(k, p, literal) validates the cell and returns the pairs
    one literal trial reads (each runner checks its own cell through it,
    with family), run(k, batch, p) is the literal runner and
    sample(k, rho, trials, rng, p) the fast sampler. The table's entries
    look their runners and samplers up when called, so wrappers installed
    on this module's functions see every call.
    """

    family: str
    params: dict
    samples_needed: Callable[[int, dict, bool], int]
    run: Callable[[int, PairBatch, dict], EstimateResult]
    sample: Callable[..., tuple]


def _at_rho(k: int, rho: float) -> float:
    return rho


SCHEMES = {
    "naive": Scheme(
        family="binary",
        params={},
        samples_needed=_naive_pairs,
        run=lambda k, batch, p: run_naive(k, batch),
        sample=lambda k, rho, trials, rng, p: _naive_trials(k, rho, trials, rng),
    ),
    "max": Scheme(
        family="gaussian",
        params={},
        samples_needed=lambda k, p, literal: _pool(k, literal),
        run=lambda k, batch, p: run_max_scheme(k, batch),
        sample=lambda k, rho, trials, rng, p: _max_trials(k, rho, trials, rng),
    ),
    "local": Scheme(
        family="gaussian",
        params={"rho_nominal": _at_rho},
        samples_needed=_local_pairs,
        run=lambda k, batch, p: run_local_scheme(k, batch=batch, **p),
        sample=lambda k, rho, trials, rng, p: _local_trials(k, rho, trials, rng, **p),
    ),
    "binary_block": Scheme(
        family="binary",
        params={
            "rho_tilde": None,
            "n_block": None,
            "rho_nominal": _at_rho,
            "guard_bits": GUARD_BITS,
        },
        samples_needed=lambda k, p, literal: _fitted_layout(k, **p).samples_needed,
        run=lambda k, batch, p: run_binary_block(k, batch=batch, **p),
        sample=lambda k, rho, trials, rng, p: _block_trials(rho, trials, rng, **p),
    ),
    "two_way": Scheme(
        family="gaussian",
        params={"k1": lambda k, rho: default_phase1_bits(k)},
        samples_needed=_two_way_pairs,
        run=lambda k, batch, p: run_two_way(k, batch=batch, **p),
        sample=lambda k, rho, trials, rng, p: _two_way_trials(k, rho, trials, rng, **p),
    ),
}
SCHEME_NAMES = tuple(SCHEMES)


@dataclass(frozen=True)
class SchemeConfig:
    """Which scheme to run and with what knobs.

    k is an integer budget (a numpy integer is stored as int). params
    takes, by scheme: local rho_nominal (default rho); two_way k1 (default
    ceil(sqrt(k))); binary_block rho_tilde and n_block (both required),
    rho_nominal (default rho) and guard_bits (default GUARD_BITS). A value
    of None means the default. Setting use_batches runs the literal batch
    protocol per trial instead of the sufficient-statistic sampler (much
    slower; the same law but for the local marks, see the module docstring).
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
        if not _is_number(self.k, integral=True):
            raise ValueError(f"bit budget must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"bit budget must be positive, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if not isinstance(self.use_batches, bool):
            raise ValueError(f"use_batches must be True or False, got {self.use_batches!r}")


_COUNT_PARAMS = ("n_block", "k1", "guard_bits")


def _resolve(config: SchemeConfig, rho_true: float) -> tuple[Scheme, dict, int]:
    """The cell's scheme, its filled-in params and its pairs per literal trial."""
    _check_correlation(rho_true)
    scheme = SCHEMES[config.scheme]
    for name, value in config.params.items():
        integral = name in _COUNT_PARAMS
        if value is not None and not _is_number(value, integral):
            kind = "an integer" if integral else "a finite number"
            raise ValueError(f"parameter {name!r} must be {kind}, got {value!r}")
        if name not in scheme.params:
            raise ValueError(
                f"scheme {config.scheme!r} takes no parameter {name!r} "
                f"(it takes: {', '.join(scheme.params) or 'none'})"
            )
    params = {}
    for name, default in scheme.params.items():
        value = config.params.get(name)
        if value is None:
            if default is None:
                raise ValueError(
                    f"scheme {config.scheme!r} needs parameter {name!r}"
                )
            value = default(config.k, rho_true) if callable(default) else default
        # a numpy count would wrap in 2**(k - k1)
        params[name] = int(value) if name in _COUNT_PARAMS else value
    needed = scheme.samples_needed(config.k, params, config.use_batches)
    return scheme, params, needed


def check_preconditions(config: SchemeConfig, rho_true: float) -> int:
    """Validate one (scheme, k, rho) cell without drawing a single sample.

    Returns the pair count one batch-mode trial would consume. Raises
    ValueError whenever the cell cannot run: a true correlation that is
    not a finite number in [-1, 1], a missing or unknown parameter, a
    value that is not a finite number (or not an integer, for n_block, k1
    and guard_bits), nominal correlation outside (-1, 1), block layout
    infeasible for the budget, phase-1 budget out of range, a pointer pool
    past the MAX_POINTER_BITS guard (literal) or the MAX_FAST_POINTER_BITS
    bound (fast sampler), or a naive budget past the same literal guard or
    the int64 range of its fast binomial draw.
    """
    return _resolve(config, rho_true)[2]


_FLAGS = ("decode_failed", "exist_failed")


def estimate_risk(config: SchemeConfig, rho_true: float, trials: int,
                  master_seed: int) -> RiskReport:
    """Monte Carlo squared-error risk of a scheme at one (k, rho) cell.

    Every trial sees fresh samples from a dedicated substream, so results
    are reproducible bit-for-bit for a fixed (config, seed) and independent
    of any execution interleaving.
    """
    if not _is_number(trials, integral=True):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    trials = int(trials)
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    scheme, params, needed = _resolve(config, rho_true)

    if config.use_batches:
        model = CorrelationModel(scheme.family, rho_true)
        run, k = scheme.run, config.k
        rho_hats = np.empty(trials)
        raws = np.empty(trials)
        flags = None  # flag name -> column, for the flags the first run reports
        try:
            for trial in range(trials):
                result = run(k, gen_pairs(model, needed, master_seed, trial), params)
                aux = result.aux
                if flags is None:
                    flags = {f: np.zeros(trials, dtype=bool) for f in _FLAGS if f in aux}
                rho_hats[trial] = result.rho_hat
                raws[trial] = aux.get("raw", result.rho_hat)
                for name, column in flags.items():
                    column[trial] = aux[name]
        except ValueError as exc:
            raise ValueError(f"trial {trial}: {exc}") from exc
        aux = {"raw": raws, **flags}
    else:
        rng = substream(
            master_seed, f"risk/{config.scheme}/k={config.k}/rho={rho_true!r}"
        )
        rho_hats, aux = scheme.sample(config.k, rho_true, trials, rng, params)

    errors = rho_hats - rho_true
    sq = errors**2
    mse = float(sq.mean())
    bias = float(errors.mean())
    variance = float(rho_hats.var())
    ci95 = float(1.96 * sq.std(ddof=1) / math.sqrt(trials))
    extras = {}
    raw = aux.get("raw")
    if raw is not None:
        extras["raw_mean"] = float(np.mean(raw))
        extras["raw_mse"] = float(np.mean((raw - rho_true) ** 2))
        extras["raw_se_mean"] = float(np.std(raw, ddof=1) / math.sqrt(trials))
        extras["raw_mse_ci95"] = float(
            1.96 * np.std((raw - rho_true) ** 2, ddof=1) / math.sqrt(trials)
        )
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
