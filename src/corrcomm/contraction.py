"""Exact verification lab for information contraction under interaction.

Everything here works on finite, exactly-enumerated joints: an interactive
protocol is a list of channel tables (round i reads the round-i speaker's
sample plus the message history), and all divergences are computed in
closed form from the materialized joint table. Every verifier returns a
CheckResult carrying its margin; a failed check embeds the violating
instance in a JSON-ready record that replay_violation re-runs. CHECKS
holds, per record kind, how a sweep draws instances of the check and how
any instance or record is verified.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .infotheory import FiniteJoint, _as_pmf, cond_mutual_info, kl, mutual_info
from .rng import substream
from .sources import shift_params

__all__ = [
    "InteractiveSpec",
    "InfoSplit",
    "CheckResult",
    "SearchResult",
    "SweepOutcome",
    "CHECKS",
    "binary_symmetric_product",
    "build_joint",
    "compute_info_split",
    "random_spec",
    "search_max_ratio",
    "verify_ratio_ceiling",
    "verify_tilted_contraction",
    "binary_input_contraction",
    "verify_tensorization",
    "verify_interactive_chain",
    "verify_shift_reduction",
    "gap_hamming_demo",
    "majority_channel",
    "replay_violation",
    "sweep",
]

JOINT_ENTRY_GUARD = 10**7
TOL = 1e-9
_ONE_SHOT_TOL = 1e-10  # tilted and binary-input: two informations of one small joint
TENSOR_SLACK = 0.02  # allowance over the estimated single-coordinate sups


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check.

    margin is how far the checked inequality holds (negative when it
    fails; the worst side when a check tests several), values the
    quantities it compared, and instance, set only when the check fails,
    the JSON-ready violation record that replay_violation re-runs.
    """

    ok: bool
    margin: float
    values: dict
    instance: dict | None = None


def _result(kind: str, ok: bool, margin: float, values: dict, record) -> CheckResult:
    """A CheckResult; record() gives the violation record's fields on failure."""
    return CheckResult(ok, margin, values, None if ok else {"check": kind, **record()})


# ----------------------------------------------------------------------
# interactive protocol specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InteractiveSpec:
    """Finite source plus alternating channel tables, Alice first.

    Channel i (1-based) is an array of shape (input_size, |U_1|, ...,
    |U_{i-1}|, |U_i|): odd rounds read x, even rounds read y, and every
    slice along the last axis is a pmf.
    """

    source: FiniteJoint
    channels: tuple[np.ndarray, ...]

    def __post_init__(self):
        channels = []
        sizes = []
        for i, chan in enumerate(self.channels, start=1):
            chan = np.asarray(chan, dtype=float)
            expect_input = self.source.nx if i % 2 == 1 else self.source.ny
            want = (expect_input, *sizes)
            if chan.shape[:-1] != want:
                raise ValueError(
                    f"round {i} channel shape {chan.shape} incompatible with "
                    f"input size {expect_input} and history sizes {sizes}"
                )
            if chan.shape[-1] < 1:
                raise ValueError(f"round {i} has an empty message alphabet")
            if np.any(chan < 0):
                raise ValueError(f"round {i} channel has negative entries")
            # np.allclose(sums, 1.0, atol=1e-9) at a fifth of its cost
            if not (np.abs(chan.sum(axis=-1) - 1.0) <= 1e-9 + 1e-5).all():
                raise ValueError(f"round {i} channel rows must sum to 1")
            channels.append(chan)
            sizes.append(chan.shape[-1])
        object.__setattr__(self, "channels", tuple(channels))

    @property
    def rounds(self) -> int:
        return len(self.channels)

    @property
    def message_sizes(self) -> tuple[int, ...]:
        return tuple(c.shape[-1] for c in self.channels)

    @property
    def message_bits(self) -> float:
        """Budget charged as sum of log2 alphabet sizes (>= entropy)."""
        return float(sum(math.log2(s) for s in self.message_sizes))

    def to_jsonable(self) -> dict:
        return {
            "source": self.source.probs.tolist(),
            "channels": [c.tolist() for c in self.channels],
        }

    @staticmethod
    def from_jsonable(data: dict) -> "InteractiveSpec":
        return InteractiveSpec(
            source=FiniteJoint(np.asarray(data["source"], dtype=float)),
            channels=tuple(np.asarray(c, dtype=float) for c in data["channels"]),
        )


def binary_symmetric_product(rho: float, n: int) -> FiniteJoint:
    """n independent copies of the +-1 symmetric pair, composite alphabets."""
    if n < 1:
        raise ValueError(f"coordinate count must be positive, got {n}")
    out = FiniteJoint.binary_symmetric(rho)
    for _ in range(n - 1):
        out = out.product(FiniteJoint.binary_symmetric(rho))
    return out


def build_joint(spec: InteractiveSpec, source: FiniteJoint | None = None) -> np.ndarray:
    """Materialize the joint over (x, y, u_1, ..., u_r).

    Guarded at 10^7 entries. The optional source override reruns the same
    channels on a different input law (used for independent references).
    """
    src = spec.source if source is None else source
    if (src.nx, src.ny) != (spec.source.nx, spec.source.ny):
        raise ValueError("source override must keep the alphabet sizes")
    entries = src.nx * src.ny
    for s in spec.message_sizes:
        entries *= s
    if entries > JOINT_ENTRY_GUARD:
        raise ValueError(
            f"joint would hold {entries} entries, guard is {JOINT_ENTRY_GUARD}"
        )
    joint = src.probs.copy()
    for i, chan in enumerate(spec.channels, start=1):
        if i % 2 == 1:
            lifted = chan[:, None, ...]  # broadcast over y
        else:
            lifted = chan[None, :, ...]  # broadcast over x
        joint = joint[..., None] * lifted
    return joint


def _sides(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(X,U), P(Y,U)) of a joint over (x, y, u_1, ..., u_r), U the transcript."""
    return (
        joint.sum(axis=1).reshape(joint.shape[0], -1),
        joint.sum(axis=0).reshape(joint.shape[1], -1),
    )


def _chain_terms(joint: np.ndarray, source: FiniteJoint) -> tuple[float, float]:
    """(I(X;Y) - I(X;Y|U), I(U;X,Y)) of a joint over (x, y, u_1, ..., u_r)."""
    nx, ny = joint.shape[:2]
    return (
        mutual_info(source) - cond_mutual_info(joint.reshape(nx, ny, -1)),
        mutual_info(joint.reshape(nx * ny, -1)),
    )


# ----------------------------------------------------------------------
# round-by-round information decomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InfoSplit:
    """Per-round information sums for one interactive spec, in bits.

    injected adds, round by round, the information each message carries
    about its speaker's own sample given the history; interchanged adds
    the information it carries about the other party's sample. The
    contraction statement under test is interchanged <= rho^2 injected.
    The *_chain fields recompute both via transcript-level identities
    (interchanged = I(X;Y) - I(X;Y|U^r), injected = I(U^r; X,Y)) as a
    cross-check.
    """

    interchanged: float
    injected: float
    ratio: float
    interchanged_chain: float
    injected_chain: float


def _round_cmi(joint: np.ndarray, round_idx: int, observe_x: bool) -> float:
    """I(U_i ; X or Y | U^{i-1}) from the full joint table."""
    r = joint.ndim - 2
    i = round_idx  # 1-based
    drop_var = 1 if observe_x else 0
    marg = joint.sum(axis=tuple([drop_var] + list(range(2 + i, 2 + r))))
    # axes now: (kept var, u_1..u_i); flatten history, order (var, u_i, hist)
    var_size = marg.shape[0]
    u_i = marg.shape[-1]
    hist = int(np.prod(marg.shape[1:-1], dtype=np.int64)) if i > 1 else 1
    arr = marg.reshape(var_size, hist, u_i).transpose(0, 2, 1)
    return cond_mutual_info(arr)


def compute_info_split(spec: InteractiveSpec, source: FiniteJoint | None = None) -> InfoSplit:
    """Round-information sums plus their transcript-identity cross-checks."""
    joint = build_joint(spec, source)
    interchanged = 0.0
    injected = 0.0
    for i in range(1, spec.rounds + 1):
        speaker_is_alice = i % 2 == 1
        about_x = _round_cmi(joint, i, observe_x=True)
        about_y = _round_cmi(joint, i, observe_x=False)
        if speaker_is_alice:
            injected += about_x
            interchanged += about_y
        else:
            injected += about_y
            interchanged += about_x

    ratio = interchanged / injected if injected > 0 else 0.0
    return InfoSplit(
        interchanged, injected, ratio,
        *_chain_terms(joint, spec.source if source is None else source),
    )


# ----------------------------------------------------------------------
# randomized search for the worst-case ratio
# ----------------------------------------------------------------------

def random_spec(
    source: FiniteJoint,
    r_max: int,
    u_max: int,
    rng: np.random.Generator,
) -> InteractiveSpec:
    """Uniformly random rounds/alphabets with Dirichlet(1) channel rows."""
    if r_max < 1 or u_max < 2:
        raise ValueError("need r_max >= 1 and u_max >= 2")
    rounds = int(rng.integers(1, r_max + 1))
    sizes: list[int] = []
    channels = []
    for i in range(1, rounds + 1):
        u_i = int(rng.integers(2, u_max + 1))
        input_size = source.nx if i % 2 == 1 else source.ny
        shape = (input_size, *sizes)
        rows = rng.dirichlet(np.ones(u_i), size=shape)
        channels.append(rows)
        sizes.append(u_i)
    return InteractiveSpec(source=source, channels=tuple(channels))


@dataclass(frozen=True)
class SearchResult:
    best_ratio: float
    best_split: InfoSplit | None  # None, like best_spec, after 0 restarts
    best_spec: InteractiveSpec | None
    evaluations: int
    max_ratio_seen: float
    violations: list = field(default_factory=list)


# Ratios are meaningless once the messages carry almost nothing; treat
# specs below this many own-bits as ratio 0 during search.
SEARCH_INFO_FLOOR = 1e-7


def _ratio_of(spec: InteractiveSpec) -> tuple[float, InfoSplit]:
    split = compute_info_split(spec)
    if split.injected < SEARCH_INFO_FLOOR:
        return 0.0, split
    return split.ratio, split


def _weaken_channel(chan: np.ndarray, t: float) -> np.ndarray:
    # Mix toward the input-independent channel; contrast scales by (1 - t).
    avg = chan.mean(axis=0, keepdims=True)
    return (1.0 - t) * chan + t * avg


def search_max_ratio(
    source: FiniteJoint,
    r_max: int = 3,
    u_max: int = 3,
    restarts: int = 200,
    seed: int = 0,
    ascent_steps: int = 300,
    ceiling: float | None = None,
    _run: Callable[[dict], CheckResult] | None = None,
) -> SearchResult:
    """Randomized multi-restart hill climb on the cross/own information ratio.

    Draws `restarts` random specs, then coordinate-ascends from the best
    three, favoring moves that weaken channels toward input independence
    (the regime where the ratio approaches its supremum). When `ceiling`
    is given, every evaluated spec is checked against it and violators are
    recorded with the serialized instance. The sdpi sweep passes its own
    `_run` to check each evaluated spec.
    """
    rng = substream(seed, "search_max_ratio")
    evaluations = 0
    max_seen = 0.0
    violations: list[dict] = []
    limit = math.inf if ceiling is None else ceiling
    run = _run or CHECKS["ratio_ceiling"].verify

    def evaluate(spec: InteractiveSpec) -> tuple[float, InfoSplit]:
        nonlocal evaluations, max_seen
        result = run({"ceiling": limit, "instance": spec})
        evaluations += 1
        max_seen = max(max_seen, result.values["ratio"])
        if not result.ok:
            violations.append(result.instance)
        return result.values["ratio"], result.values["split"]

    pool: list[tuple[float, InfoSplit, InteractiveSpec]] = []
    for _ in range(restarts):
        spec = random_spec(source, r_max, u_max, rng)
        pool.append((*evaluate(spec), spec))
    pool.sort(key=lambda item: item[0], reverse=True)

    best_ratio, best_split, best_spec = pool[0] if pool else (0.0, None, None)
    for start_ratio, start_split, start_spec in pool[:3]:
        cur_ratio, cur_split, cur_spec = start_ratio, start_split, start_spec
        channels = [c.copy() for c in cur_spec.channels]
        for _ in range(ascent_steps):
            idx = int(rng.integers(len(channels)))
            cand = [c.copy() for c in channels]
            if rng.random() < 0.6:
                cand[idx] = _weaken_channel(cand[idx], 0.5 * rng.random())
            else:
                flat = cand[idx].reshape(-1, cand[idx].shape[-1])
                row = int(rng.integers(flat.shape[0]))
                corner = rng.dirichlet(np.ones(flat.shape[1]))
                t = 0.3 * rng.random()
                flat[row] = (1.0 - t) * flat[row] + t * corner
            cand_spec = replace(cur_spec, channels=tuple(cand))
            ratio, split = evaluate(cand_spec)
            if ratio > cur_ratio:
                cur_ratio, cur_split, cur_spec = ratio, split, cand_spec
                channels = cand
        if cur_ratio > best_ratio:
            best_ratio, best_split, best_spec = cur_ratio, cur_split, cur_spec
    return SearchResult(
        best_ratio=best_ratio,
        best_split=best_split,
        best_spec=best_spec,
        evaluations=evaluations,
        max_ratio_seen=max_seen,
        violations=violations,
    )


def verify_ratio_ceiling(spec: InteractiveSpec, ceiling: float) -> CheckResult:
    """The spec's cross/own information ratio stays at or below ceiling."""
    ratio, split = _ratio_of(spec)
    return _result(
        "ratio_ceiling", ratio <= ceiling, ceiling - ratio,
        {"ratio": ratio, "ceiling": ceiling, "split": split},
        lambda: {"ratio": ratio, "ceiling": ceiling, "instance": spec.to_jsonable()},
    )


# ----------------------------------------------------------------------
# one-shot verifiers
# ----------------------------------------------------------------------

def verify_tilted_contraction(
    rho: float, f, g, channel_u, channel_v=None
) -> CheckResult:
    """Contraction survives product tilts of the symmetric binary pair.

    The source is P(x, y) proportional to f(x) g(y) Q(x, y) with Q the
    +-1 symmetric pair at correlation rho. For U drawn from x via
    channel_u the check is I(U;Y) <= rho^2 I(U;X); when channel_v (drawn
    from y) is given, the mirrored check I(X;V) <= rho^2 I(Y;V) runs too.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (2,) or g.shape != (2,):
        raise ValueError("tilt weights must be length-2 vectors")
    if np.any(f < 0) or np.any(g < 0):
        raise ValueError("tilt weights must be nonnegative")
    base = FiniteJoint.binary_symmetric(rho).probs
    tilted = f[:, None] * g[None, :] * base
    mass = tilted.sum()
    if mass <= 0:
        raise ValueError("tilt removes all probability mass")
    tilted /= mass

    def side(source: np.ndarray, channel) -> tuple[float, float]:
        # (cross, own) information of a message drawn from source's x
        spec = InteractiveSpec(FiniteJoint(source), (channel,))
        p_own, p_cross = _sides(build_joint(spec))
        return mutual_info(p_cross), mutual_info(p_own)

    cross_u, own_u = side(tilted, channel_u)
    margin = rho * rho * own_u - cross_u
    values = {"margin_u": margin, "cross_u": cross_u, "own_u": own_u}
    if channel_v is not None:
        cross_v, own_v = side(tilted.T, channel_v)
        margin_v = rho * rho * own_v - cross_v
        values.update(margin_v=margin_v, cross_v=cross_v, own_v=own_v)
        margin = min(margin, margin_v)
    return _result(
        "tilted_contraction", margin >= -_ONE_SHOT_TOL, margin, values,
        lambda: {
            "rho": rho,
            "f": f.tolist(),
            "g": g.tolist(),
            "channel_u": np.asarray(channel_u).tolist(),
            "channel_v": None if channel_v is None else np.asarray(channel_v).tolist(),
        },
    )


def binary_input_contraction(p, q, channel, pa=(0.5, 0.5)) -> CheckResult:
    """Hellinger-affinity contraction for a binary-input output channel.

    With A ~ pa binary, B | A=0 ~ p, B | A=1 ~ q, and U drawn from A,
    checks I(U;B) <= I(U;A) (1 - (sum_v sqrt(p(v) q(v)))^2).
    """
    p, q, pa = (_as_pmf(v, name) for v, name in ((p, "p"), (q, "q"), (pa, "pa")))
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("output pmfs must be 1-D with matching alphabets")
    if pa.shape != (2,):
        raise ValueError(f"input pmf pa must have 2 entries, got shape {pa.shape}")
    affinity = float(np.sqrt(p * q).sum())
    coeff = 1.0 - affinity * affinity
    # A is the x side and B the y side of a one-round spec that reads A
    spec = InteractiveSpec(FiniteJoint(pa[:, None] * np.stack([p, q])), (channel,))
    p_au, p_bu = _sides(build_joint(spec))
    i_ua, i_ub = mutual_info(p_au), mutual_info(p_bu)
    margin = coeff * i_ua - i_ub
    values = {"i_ua": i_ua, "i_ub": i_ub, "coefficient": coeff}
    return _result(
        "binary_input_contraction", margin >= -_ONE_SHOT_TOL, margin, values,
        lambda: {"p": p.tolist(), "q": q.tolist(),
                 "channel": spec.channels[0].tolist(), "pa": pa.tolist()},
    )


def verify_tensorization(
    source1: FiniteJoint,
    source2: FiniteJoint,
    spec_channels,
    sup1: float,
    sup2: float,
    slack: float = TENSOR_SLACK,
) -> CheckResult:
    """Product-source specs cannot beat the worst single-coordinate ratio.

    Runs the given channels on source1 x source2 and compares the ratio
    against max(sup_j) + slack, where each sup_j is the supremum of the
    ratio on coordinate j alone, as search_max_ratio estimates it.
    """
    product = source1.product(source2)
    spec = InteractiveSpec(source=product, channels=tuple(spec_channels))
    ratio, split = _ratio_of(spec)
    ceiling = max(sup1, sup2) + slack
    values = {"ratio": ratio, "ceiling": ceiling, "sup1": sup1, "sup2": sup2}
    return _result(
        "tensorization", ratio <= ceiling, ceiling - ratio, {**values, "split": split},
        lambda: {
            "source1": source1.probs.tolist(),
            "source2": source2.probs.tolist(),
            "channels": [np.asarray(c).tolist() for c in spec_channels],
            **values,
            "slack": slack,
        },
    )


def verify_interactive_chain(spec: InteractiveSpec, rho: float) -> CheckResult:
    """Transcript divergences vs the interchanged and injected information.

    The reference law reruns the same channels on the independent source
    with matching marginals. Checks, within TOL:
    max(D(P_UX || ref), D(P_UY || ref)) <= I(X;Y) - I(X;Y|U^r)
    <= rho^2 I(U^r;X,Y), and for one-way specs the y-side divergence
    equals the interchanged information exactly. Values are in bits; the
    margin is the tighter of the two chain inequalities.
    """
    src = spec.source
    ref_source = FiniteJoint.from_product(src.marginal_x(), src.marginal_y())
    joint = build_joint(spec)
    with_x, with_y = _sides(joint)
    with_x_ref, with_y_ref = _sides(build_joint(spec, source=ref_source))
    d_x = kl(with_x, with_x_ref)
    d_y = kl(with_y, with_y_ref)

    interchanged, injected = _chain_terms(joint, src)
    scaled = rho * rho * injected

    one_way_gap = abs(d_y - interchanged) if spec.rounds == 1 else None
    ok = (
        max(d_x, d_y) <= interchanged + TOL
        and interchanged <= scaled + TOL
        and (one_way_gap is None or one_way_gap <= TOL)
    )
    values = {
        "div_transcript_x": d_x,
        "div_transcript_y": d_y,
        "interchanged": interchanged,
        "injected": injected,
    }
    margin = min(interchanged - max(d_x, d_y), scaled - interchanged)
    return _result(
        "interactive_chain", ok, margin,
        {**values, "rho_sq_injected": scaled, "one_way_gap": one_way_gap},
        lambda: {"rho": rho, **spec.to_jsonable(), "values": values},
    )


# ----------------------------------------------------------------------
# correlation-shift reduction
# ----------------------------------------------------------------------

def _shifted_source(rho_in: float, alpha: float, s: float) -> FiniteJoint:
    """Joint of ((X', W0), Y') for one +-1 coordinate, W0 = (B, Z).

    B ~ Bernoulli(alpha) selects a shared uniform sign Z for both parties
    (with Y' taking s Z); otherwise the original pair passes through.
    Symbol 0 is +1 and symbol 1 is -1; the x symbol is 4 x' + 2 b + z, so
    W0 rides on the x side and standard channel lifting applies.
    """
    base = FiniteJoint.binary_symmetric(rho_in).probs
    table = np.zeros((2, 2, 2, 2))  # (x', b, z, y')
    table[:, 0] = ((1.0 - alpha) * 0.5 * base)[:, None, :]
    sz = 0 if s > 0 else 1  # symbol of Y' = s Z when Z = +1
    table[0, 1, 0, sz] = table[1, 1, 1, 1 - sz] = (alpha * 0.5 * base).sum()
    return FiniteJoint(table.reshape(8, 2))


def verify_shift_reduction(rho0: float, rho1: float, spec_channels) -> CheckResult:
    """A correlation shift costs at most ((rho1-rho0)/(1-|rho0|))^2 per bit.

    The same channels run on one shifted +-1 pair under two hypotheses:
    input correlation (rho1-rho0)/(1-|rho0|) (so the shifted pair has
    correlation rho1) versus input correlation 0 (shifted correlation
    rho0). With the shared shift randomness W0 = (B, Z) counted as part of
    the transcript, both transcript-sample divergences are bounded by the
    squared shift ratio times the protocol's message bits.
    """
    params = shift_params("binary", rho0, rho1)
    rho_in = params.input_rho
    # odd rounds read x' only: each x' row serves its four W0 symbols
    spec = InteractiveSpec(
        _shifted_source(rho_in, params.alpha, params.s),
        tuple(np.repeat(c, 4, axis=0) if i % 2 == 0 else c
              for i, c in enumerate(spec_channels)),
    )

    def transcript_samples(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # laws of (X', W0, U) and (W0, Y', U)
        return _sides(joint)[0], joint.reshape(2, 4, -1).sum(axis=0)

    x1, y1 = transcript_samples(build_joint(spec))
    x0, y0 = transcript_samples(
        build_joint(spec, _shifted_source(0.0, params.alpha, params.s))
    )
    d_x = kl(x1, x0)
    d_y = kl(y1, y0)
    bits = spec.message_bits
    bound = rho_in**2 * bits
    worst = max(d_x, d_y)
    values = {"div_x": d_x, "div_y": d_y, "bound": bound, "rho_input": rho_in,
              "message_bits": bits}
    return _result(
        "shift_reduction", worst <= bound + TOL, bound - worst, values,
        lambda: {"rho0": rho0, "rho1": rho1,
                 "channels": [np.asarray(c).tolist() for c in spec_channels]},
    )


# ----------------------------------------------------------------------
# two-hypothesis mixture demo
# ----------------------------------------------------------------------

def majority_channel(n: int) -> np.ndarray:
    """Deterministic one-bit channel: 1 when most of the n signs are +1."""
    size = 2**n
    table = np.zeros((size, 2))
    for idx in range(size):
        ones = bin(idx).count("1")  # symbol 1 encodes -1
        plus = n - ones
        table[idx, 1 if plus > n - plus else 0] = 1.0
    return table


def gap_hamming_demo(n: int, spec_channels, c: float = 1.0) -> CheckResult:
    """Sign-of-correlation testing needs order n bits of transcript.

    The hidden bit U flips the correlation of an n-coordinate +-1 source
    between +c/sqrt(n) and -c/sqrt(n). For the given transcript channels,
    computes I(U; transcript) exactly, bounds it by the mixture divergence
    (1/2) sum_sign D(P^sign_{X,U^r} || P^0_{X,U^r}), and bounds that by
    rho0^2 I(transcript; X,Y) under the mixture. implied_k_lower =
    I(U;transcript) / rho0^2 is the budget needed to make the transcript
    useful, i.e. Theta(n) when I(U;transcript) is order 1. The 4^n-entry
    source must fit under JOINT_ENTRY_GUARD, so n is at most 11.
    """
    n_max = int(math.log(JOINT_ENTRY_GUARD, 4))
    if not 1 <= n <= n_max:
        raise ValueError(
            f"coordinate count must lie in [1, {n_max}] (the source holds 4^n "
            f"entries, guard is {JOINT_ENTRY_GUARD}), got {n}"
        )
    rho0 = c / math.sqrt(n)
    if not 0 < rho0 <= 1:
        raise ValueError(f"per-coordinate correlation {rho0} outside (0, 1]")

    spec = InteractiveSpec(binary_symmetric_product(rho0, n), tuple(spec_channels))
    joint_plus = build_joint(spec)
    joint_minus = build_joint(spec, binary_symmetric_product(-rho0, n))
    with_x_null = _sides(build_joint(spec, binary_symmetric_product(0.0, n)))[0]

    mixture_kl_bound = 0.5 * kl(_sides(joint_plus)[0], with_x_null) + 0.5 * kl(
        _sides(joint_minus)[0], with_x_null
    )

    # I(U; transcript) with U the uniform hypothesis bit
    table = 0.5 * np.stack(
        [joint_plus.sum(axis=(0, 1)).ravel(), joint_minus.sum(axis=(0, 1)).ravel()]
    )
    i_u_pi = mutual_info(table)

    mixture = 0.5 * (joint_plus + joint_minus)
    injected_mix = mutual_info(mixture.reshape(4**n, -1))

    ok = (
        i_u_pi <= mixture_kl_bound + TOL
        and mixture_kl_bound <= rho0**2 * injected_mix + TOL
    )
    values = {
        "rho0": rho0,
        "i_u_pi": i_u_pi,
        "mixture_kl_bound": mixture_kl_bound,
        "injected_mixture": injected_mix,
        "implied_k_lower": i_u_pi / rho0**2,
    }
    margin = min(
        mixture_kl_bound - i_u_pi, rho0**2 * injected_mix - mixture_kl_bound
    )
    return _result(
        "gap_hamming", ok, margin, values,
        lambda: {"n": n, "c": c,
                 "channels": [np.asarray(ch).tolist() for ch in spec_channels]},
    )


# ----------------------------------------------------------------------
# randomized sweeps and replay
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepOutcome:
    suite: str
    checks: int
    violations: list
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


# Instance generators: draw(rng, seed, draws, run, **args) hands each drawn
# instance (a mapping with the fields of the check's violation record) to
# run, which verifies it and returns its CheckResult, and returns the
# sweep's stats beyond worst_margin.

def _draw_ratio_ceiling(rng, seed, draws, run, rho):
    # search_max_ratio derives this same stream from seed; rng goes unused
    result = search_max_ratio(FiniteJoint.binary_symmetric(rho), 3, 3, draws, seed,
                              ceiling=rho * rho + 1e-9, _run=run)
    return {"best_ratio": result.best_ratio}


def _draw_tilted(rng, seed, draws, run, rho):
    for _ in range(draws):
        f, g = rng.random(2) * 2.0, rng.random(2) * 2.0
        m_u, m_v = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        run({"rho": rho, "f": f, "g": g,
             "channel_u": rng.dirichlet(np.ones(m_u), size=2),
             "channel_v": rng.dirichlet(np.ones(m_v), size=2)})
    return {}


def _draw_binary_input(rng, seed, draws, run):
    for _ in range(draws):
        b_size = int(rng.integers(2, 5))
        p, q = rng.dirichlet(np.ones(b_size)), rng.dirichlet(np.ones(b_size))
        u_size = int(rng.integers(2, 4))
        run({"p": p, "q": q, "channel": rng.dirichlet(np.ones(u_size), size=2)})
    return {}


def _draw_tensorization(rng, seed, draws, run, rho1, rho2):
    source1 = FiniteJoint.binary_symmetric(rho1)
    source2 = FiniteJoint.binary_symmetric(rho2)
    sup1 = search_max_ratio(source1, restarts=400, seed=seed).best_ratio
    sup2 = search_max_ratio(source2, restarts=400, seed=seed + 1).best_ratio
    product = source1.product(source2)
    for _ in range(draws):
        run({"source1": source1, "source2": source2,
             "channels": random_spec(product, 2, 2, rng).channels,
             "sup1": sup1, "sup2": sup2, "slack": TENSOR_SLACK})
    return {"sup1": sup1, "sup2": sup2}


def _draw_chain(rng, seed, draws, run, rhos):
    # draws is split evenly over rhos, rounding up, at least one each
    one_way_worst = 0.0
    for rho in rhos:
        for _ in range(max(1, -(-draws // len(rhos)))):
            n = int(rng.integers(1, 3))
            spec = random_spec(binary_symmetric_product(rho, n), 3, 3, rng)
            gap = run({"rho": rho, "spec": spec}).values["one_way_gap"]
            if gap is not None:
                one_way_worst = max(one_way_worst, gap)
    return {"one_way_worst_gap": one_way_worst}


def _draw_shift(rng, seed, draws, run, rho0, rho1):
    # channel shapes live on the +-1 alphabets
    shape_source = FiniteJoint.binary_symmetric(0.0)
    for _ in range(draws):
        spec = random_spec(shape_source, 3, 3, rng)
        run({"rho0": rho0, "rho1": rho1, "channels": spec.channels})
    return {}


def _draw_gap_hamming(rng, seed, draws, run, n, c):
    majority = run({"n": n, "c": c, "channels": (majority_channel(n),)}).values
    source_shape = binary_symmetric_product(0.0, n)
    for _ in range(draws):
        # allow two rounds: a transcript that never touches y carries zero
        # information about the correlation sign, so r=1 alone is vacuous
        spec = random_spec(source_shape, r_max=2, u_max=2, rng=rng)
        run({"n": n, "c": c, "channels": spec.channels})
    keys = ("i_u_pi", "mixture_kl_bound", "implied_k_lower")
    return {"majority": {key: majority[key] for key in keys}}


def _live(value, cls, build):
    """The object a sweep drew, or one built from a violation record."""
    return value if isinstance(value, cls) else build(value)


@dataclass(frozen=True)
class Check:
    """One kind of check, named by its violation records' "check" field.

    A sweep over it draws from substream (seed, stream) with the instance
    generator draw and reports under suite; verify(record) checks a drawn
    instance or re-runs a violation record. draws and args are the CLI's
    defaults; draws None keeps the suite off the CLI. verify looks its
    verifier up when called, so wrappers installed on this module see
    every call.
    """

    suite: str
    stream: str
    draw: Callable[..., dict]
    verify: Callable[[dict], CheckResult]
    draws: int | None = None
    args: dict = field(default_factory=dict)


CHECKS = {
    "ratio_ceiling": Check(
        "sdpi", "search_max_ratio", _draw_ratio_ceiling,
        lambda r: verify_ratio_ceiling(
            _live(r["instance"], InteractiveSpec, InteractiveSpec.from_jsonable),
            r["ceiling"],
        ),
        2000, {"rho": 0.6},
    ),
    "tilted_contraction": Check(
        "tilted", "sweep_tilted", _draw_tilted,
        lambda r: verify_tilted_contraction(
            r["rho"], r["f"], r["g"], r["channel_u"], r.get("channel_v")
        ),
        10000, {"rho": 0.7},
    ),
    "binary_input_contraction": Check(
        "binary_contraction", "sweep_binary_contraction", _draw_binary_input,
        lambda r: binary_input_contraction(
            r["p"], r["q"], r["channel"], r.get("pa", (0.5, 0.5))
        ),
    ),
    "tensorization": Check(
        "tensor", "sweep_tensorization", _draw_tensorization,
        lambda r: verify_tensorization(
            _live(r["source1"], FiniteJoint, FiniteJoint),
            _live(r["source2"], FiniteJoint, FiniteJoint), r["channels"],
            sup1=r["sup1"], sup2=r["sup2"], slack=r["slack"],
        ),
        500, {"rho1": 0.4, "rho2": 0.8},
    ),
    "interactive_chain": Check(
        "chain", "sweep_chain", _draw_chain,
        lambda r: verify_interactive_chain(
            _live(r.get("spec", r), InteractiveSpec, InteractiveSpec.from_jsonable),
            r["rho"],
        ),
        201, {"rhos": (0.3, 0.6, 0.9)},
    ),
    "shift_reduction": Check(
        "shift", "sweep_shift", _draw_shift,
        lambda r: verify_shift_reduction(r["rho0"], r["rho1"], r["channels"]),
        100, {"rho0": 0.25, "rho1": 0.5},
    ),
    "gap_hamming": Check(
        "gaphamming", "sweep_gap_hamming", _draw_gap_hamming,
        lambda r: gap_hamming_demo(r["n"], r["channels"], r["c"]),
        100, {"n": 8, "c": 1.0},
    ),
}


def sweep(kind: str, draws: int, seed: int, **args) -> SweepOutcome:
    """Verify the instances CHECKS[kind] draws from (seed, its stream).

    args go to the check's instance generator. Stats carry the worst
    margin over all checks, then whatever the generator reports.
    """
    check = CHECKS[kind]
    violations = []
    checks = 0
    worst = math.inf

    def run(instance) -> CheckResult:
        nonlocal checks, worst
        result = check.verify(instance)
        checks += 1
        worst = min(worst, result.margin)
        if not result.ok:
            violations.append(result.instance)
        return result

    extra = check.draw(substream(seed, check.stream), seed, draws, run, **args)
    return SweepOutcome(
        suite=check.suite,
        checks=checks,
        violations=violations,
        stats={"worst_margin": worst, **extra},
    )


def replay_violation(record: dict) -> CheckResult:
    """Re-run the check named in a serialized violation record."""
    kind = record.get("check")
    if not isinstance(kind, str) or kind not in CHECKS:
        raise ValueError(f"unknown violation record kind: {kind!r}")
    return CHECKS[kind].verify(record)
