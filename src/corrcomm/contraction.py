"""Exact verification lab for information contraction under interaction.

Everything here works on finite, exactly-enumerated joints: an interactive
protocol is a list of channel tables (round i reads the round-i speaker's
sample plus the message history), and all divergences are computed in
closed form from the materialized joint table, except gap-hamming's,
which come from the product source's 2^n-row factors (gap_hamming_demo).
Every verifier returns a CheckResult carrying its margin; a failed check
embeds the violating instance in a JSON-ready record that
replay_violation re-runs. CHECKS holds, per record kind, how a sweep
draws instances of the check and how a list of instances or records is
verified.

The information quantities run on stacks: same-shape joints ride along a
leading batch axis through one numpy call per reduction, so a sweep or a
search hands over whole lists of instances. Every public verifier is the
stacked path at batch size one, and a table's numbers do not depend on the
batch it rides in.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .infotheory import (
    FiniteJoint,
    _check_joints,
    _check_pmfs,
    _cond_mutual_info_rows,
    _is_number,
    _mutual_info_rows,
    kl,
    mutual_info,
)
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
        channels = tuple(np.asarray(chan, dtype=float) for chan in self.channels)
        _check_rounds(self.source.nx, self.source.ny, [chan[None] for chan in channels])
        object.__setattr__(self, "channels", channels)

    @classmethod
    def _unchecked(cls, source: FiniteJoint, channels: tuple) -> "InteractiveSpec":
        """A spec whose channels the stacked batch that evaluates it checks."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "source", source)
        object.__setattr__(spec, "channels", channels)
        return spec

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


def _check_rounds(nx: int, ny: int, channels) -> None:
    """InteractiveSpec's checks on stacked channels, one stack per round.

    Round i's stack has shape (B, input_size, |U_1|, ..., |U_i|) for B
    specs on a source with nx x ny alphabets.
    """
    sizes = []
    for i, chan in enumerate(channels, start=1):
        expect_input = nx if i % 2 == 1 else ny
        want = (expect_input, *sizes)
        if chan.shape[1:-1] != want:
            raise ValueError(
                f"round {i} channel shape {chan.shape[1:]} incompatible with "
                f"input size {expect_input} and history sizes {sizes}"
            )
        if chan.shape[-1] < 1:
            raise ValueError(f"round {i} has an empty message alphabet")
        if np.any(chan < 0):
            raise ValueError(f"round {i} channel has negative entries")
        # np.allclose(sums, 1.0, atol=1e-9) at a fifth of its cost
        if not (np.abs(chan.sum(axis=-1) - 1.0) <= 1e-9 + 1e-5).all():
            raise ValueError(f"round {i} channel rows must sum to 1")
        sizes.append(chan.shape[-1])


def binary_symmetric_product(rho: float, n: int) -> FiniteJoint:
    """n independent copies of the +-1 symmetric pair, composite alphabets."""
    if not _is_number(n, integral=True) or n < 1:
        raise ValueError(f"coordinate count must be a positive integer, got {n!r}")
    out = FiniteJoint.binary_symmetric(rho)
    for _ in range(n - 1):
        out = out.product(FiniteJoint.binary_symmetric(rho))
    return out


def build_joint(spec: InteractiveSpec) -> np.ndarray:
    """Materialize the joint over (x, y, u_1, ..., u_r), guarded at 10^7 entries."""
    return _joints(spec.source.probs[None], [chan[None] for chan in spec.channels])[0]


def _check_entries(entries: int) -> None:
    if entries > JOINT_ENTRY_GUARD:
        raise ValueError(
            f"joint would hold {entries} entries, guard is {JOINT_ENTRY_GUARD}"
        )


def _joints(sources: np.ndarray, channels) -> np.ndarray:
    """Stacked joints over (b, x, y, u_1, ..., u_r), each guarded at 10^7 entries.

    sources is (B, nx, ny) and round i's channel stack (B, input_size,
    |U_1|, ..., |U_i|); a stack of one channel serves every source.
    """
    entries = sources.shape[1] * sources.shape[2]
    for chan in channels:
        entries *= chan.shape[-1]
    _check_entries(entries)
    joint = sources.copy()
    for i, chan in enumerate(channels, start=1):
        if i % 2 == 1:
            lifted = chan[:, :, None, ...]  # broadcast over y
        else:
            lifted = chan[:, None, ...]  # broadcast over x
        joint = joint[..., None] * lifted
    return joint


def _sides(joints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of (P(X,U), P(Y,U)) of joints over (b, x, y, u_1, ..., u_r)."""
    rows, nx, ny = joints.shape[:3]
    return (
        joints.sum(axis=2).reshape(rows, nx, -1),
        joints.sum(axis=1).reshape(rows, ny, -1),
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
    For a one-round spec, U drawn from x, they are I(U;X) and I(U;Y).
    """

    interchanged: float
    injected: float
    ratio: float


def _round_cmi(joints: np.ndarray, round_idx: int, observe_x: bool) -> np.ndarray:
    """I(U_i ; X or Y | U^{i-1}) of each of the stacked joints."""
    r = joints.ndim - 3
    i = round_idx  # 1-based
    drop_var = 2 if observe_x else 1
    marg = joints.sum(axis=(drop_var, *range(3 + i, 3 + r)))
    # axes now: (b, kept var, u_1..u_i); flatten history, order (var, u_i, hist)
    rows, var_size, u_i = marg.shape[0], marg.shape[1], marg.shape[-1]
    hist = math.prod(marg.shape[2:-1])
    arr = marg.reshape(rows, var_size, hist, u_i).transpose(0, 1, 3, 2)
    return _cond_mutual_info_rows(arr)


def compute_info_split(spec: InteractiveSpec) -> InfoSplit:
    """The spec's round-information sums."""
    return _info_splits([spec.source.probs], [spec.channels])[0]


def _info_splits(sources, channels: list) -> list[InfoSplit]:
    """compute_info_split of each (source table, channel tuple) pair, stacked.

    sources holds (nx, ny) joint tables, as a list or as one (B, nx, ny)
    stack. Pairs with the same source and message shapes form one stack:
    its sources, channels and joints are checked once, and each round's
    informations come from one call.
    """
    stacked = isinstance(sources, np.ndarray)
    groups: dict[tuple, list[int]] = {}
    for b, chans in enumerate(channels):
        key = tuple([chan.shape for chan in chans])
        groups.setdefault(key if stacked else (sources[b].shape, key), []).append(b)
    splits: list = [None] * len(channels)
    for members in groups.values():
        if stacked:
            group_sources = np.ascontiguousarray(sources[members])
        else:
            # np.array stacks same-shape arrays as np.stack does, at a third of its cost
            group_sources = np.array([sources[b] for b in members])
        stacks = [np.array(round_chans)
                  for round_chans in zip(*[channels[b] for b in members])]
        _check_joints(group_sources)
        _check_rounds(group_sources.shape[1], group_sources.shape[2], stacks)
        joints = _joints(group_sources, stacks)
        _check_joints(joints)
        interchanged = np.zeros(len(members))
        injected = np.zeros(len(members))
        for i in range(1, len(stacks) + 1):
            about_x = _round_cmi(joints, i, observe_x=True)
            about_y = _round_cmi(joints, i, observe_x=False)
            if i % 2 == 1:  # Alice speaks
                injected += about_x
                interchanged += about_y
            else:
                injected += about_y
                interchanged += about_x
        for b, cross, own in zip(members, interchanged.tolist(), injected.tolist()):
            splits[b] = InfoSplit(cross, own, cross / own if own > 0 else 0.0)
    return splits


# ----------------------------------------------------------------------
# randomized search for the worst-case ratio
# ----------------------------------------------------------------------

def random_spec(
    source: FiniteJoint, r_max: int, u_max: int, rng: np.random.Generator
) -> InteractiveSpec:
    """Uniformly random rounds/alphabets with Dirichlet(1) channel rows."""
    channels = _random_channels(source.nx, source.ny, r_max, u_max, rng)
    # Dirichlet rows are pmfs by construction; stacked evaluations check them
    return InteractiveSpec._unchecked(source, channels)


def _random_channels(nx: int, ny: int, r_max: int, u_max: int, rng) -> tuple:
    """random_spec's channels for nx x ny alphabets, from the same stream."""
    if r_max < 1 or u_max < 2:
        raise ValueError("need r_max >= 1 and u_max >= 2")
    rounds = int(rng.integers(1, r_max + 1))
    sizes: list[int] = []
    channels = []
    for i in range(1, rounds + 1):
        u_i = int(rng.integers(2, u_max + 1))
        shape = (nx if i % 2 == 1 else ny, *sizes)
        channels.append(rng.dirichlet(np.ones(u_i), size=shape))
        sizes.append(u_i)
    return tuple(channels)


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

# Hill-climb moves evaluated as one stacked batch. The climb's draws do
# not depend on which moves it accepts, so it draws them all up front and
# evaluates each window from the current state, keeping the results up to
# and including the first accepted move.
ASCENT_WINDOW = 16


def _search_ratio(split: InfoSplit) -> float:
    return 0.0 if split.injected < SEARCH_INFO_FLOOR else split.ratio


def _weaken_channel(chan: np.ndarray, t: float) -> np.ndarray:
    # Mix toward the input-independent channel; contrast scales by (1 - t).
    avg = chan.sum(axis=0, keepdims=True) / chan.shape[0]  # chan.mean's floats, faster
    return (1.0 - t) * chan + t * avg


def _draw_move(rng: np.random.Generator, shapes: list) -> tuple:
    """One climb move on channels of these shapes: (idx, t, row, corner).

    row is None for a move that weakens channel idx by t; otherwise the
    move mixes that row of the channel, flattened to rows of its last
    axis, toward corner by t.
    """
    idx = int(rng.integers(len(shapes)))
    if rng.random() < 0.6:
        return idx, 0.5 * rng.random(), None, None
    row = int(rng.integers(math.prod(shapes[idx][:-1])))
    corner = rng.dirichlet(np.ones(shapes[idx][-1]))
    t = 0.3 * rng.random()
    return idx, t, row, corner


def _moved(channels: tuple, move: tuple) -> tuple:
    """channels with one move applied (a new array for the moved channel)."""
    idx, t, row, corner = move
    if row is None:
        chan = _weaken_channel(channels[idx], t)
    else:
        chan = channels[idx].copy()
        flat = chan.reshape(-1, chan.shape[-1])
        flat[row] = (1.0 - t) * flat[row] + t * corner
    return (*channels[:idx], chan, *channels[idx + 1:])


def _through_first(results: list, stop) -> list:
    """results up to and including the first that stop accepts (all if none)."""
    if stop is not None:
        for i, result in enumerate(results):
            if stop(result):
                return results[: i + 1]
    return results


def search_max_ratio(
    source: FiniteJoint,
    r_max: int = 3,
    u_max: int = 3,
    restarts: int = 200,
    seed: int = 0,
    ascent_steps: int = 300,
    ceiling: float | None = None,
    _run: Callable[..., list[CheckResult]] | None = None,
) -> SearchResult:
    """Randomized multi-restart hill climb on the cross/own information ratio.

    Draws `restarts` random specs, then coordinate-ascends from the best
    three, favoring moves that weaken channels toward input independence
    (the regime where the ratio approaches its supremum). When `ceiling`
    is given, every evaluated spec is checked against it and violators are
    recorded with the serialized instance. The restarts are evaluated as
    one batch and each climb's moves in windows of ASCENT_WINDOW; every
    count and result equals that of a climb taking one move at a time.
    The sdpi sweep passes its own `_run(instances, stop)` to check each
    batch of evaluated specs; it keeps the results up to and including the
    first that stop accepts.
    """
    rng = substream(seed, "search_max_ratio")
    evaluations = 0
    max_seen = 0.0
    violations: list[dict] = []
    limit = math.inf if ceiling is None else ceiling
    run = _run or (
        lambda instances, stop: _through_first(CHECKS["ratio_ceiling"].verify(instances), stop)
    )

    def evaluate(specs: list, stop=None) -> list[CheckResult]:
        nonlocal evaluations, max_seen
        results = run([{"ceiling": limit, "instance": spec} for spec in specs], stop)
        evaluations += len(results)
        for result in results:
            max_seen = max(max_seen, result.values["ratio"])
            if not result.ok:
                violations.append(result.instance)
        return results

    specs = [random_spec(source, r_max, u_max, rng) for _ in range(restarts)]
    pool = [(result.values["ratio"], result.values["split"], spec)
            for result, spec in zip(evaluate(specs), specs)]
    pool.sort(key=lambda item: item[0], reverse=True)

    best_ratio, best_split, best_spec = pool[0] if pool else (0.0, None, None)
    for start_ratio, start_split, start_spec in pool[:3]:
        cur_ratio, cur_split, cur_spec = start_ratio, start_split, start_spec
        shapes = [chan.shape for chan in cur_spec.channels]
        moves = [_draw_move(rng, shapes) for _ in range(ascent_steps)]
        step = 0
        while step < ascent_steps:
            cands = [InteractiveSpec._unchecked(cur_spec.source, _moved(cur_spec.channels, move))
                     for move in moves[step:step + ASCENT_WINDOW]]
            results = evaluate(cands, lambda r, floor=cur_ratio: r.values["ratio"] > floor)
            step += len(results)
            last = results[-1].values
            if last["ratio"] > cur_ratio:
                cur_ratio, cur_split, cur_spec = last["ratio"], last["split"], cands[len(results) - 1]
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
    return _ratio_ceilings([{"instance": spec, "ceiling": ceiling}])[0]


def _ratio_ceilings(records: list) -> list[CheckResult]:
    """verify_ratio_ceiling of each record's instance and ceiling, stacked."""
    specs = [_live(r["instance"], InteractiveSpec, InteractiveSpec.from_jsonable)
             for r in records]
    splits = _info_splits([spec.source.probs for spec in specs],
                          [spec.channels for spec in specs])
    return [_ratio_result(spec, split, r["ceiling"])
            for spec, split, r in zip(specs, splits, records)]


def _ratio_result(spec: InteractiveSpec, split: InfoSplit, ceiling: float) -> CheckResult:
    ratio = _search_ratio(split)
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
    return _tilted_batch(
        [{"rho": rho, "f": f, "g": g, "channel_u": channel_u, "channel_v": channel_v}]
    )[0]


def _tilted_batch(records: list) -> list[CheckResult]:
    """verify_tilted_contraction of each record, stacked."""
    f = [np.asarray(r["f"], dtype=float) for r in records]
    g = [np.asarray(r["g"], dtype=float) for r in records]
    if any(w.shape != (2,) for w in (*f, *g)):
        raise ValueError("tilt weights must be length-2 vectors")
    f, g = np.reshape(f, (-1, 2)), np.reshape(g, (-1, 2))
    if np.any(f < 0) or np.any(g < 0):
        raise ValueError("tilt weights must be nonnegative")
    bases: dict[float, np.ndarray] = {}
    for r in records:
        if r["rho"] not in bases:
            bases[r["rho"]] = FiniteJoint.binary_symmetric(r["rho"]).probs
    tilted = f[:, :, None] * g[:, None, :] * np.reshape(
        [bases[r["rho"]] for r in records], (-1, 2, 2)
    )
    mass = tilted.reshape(-1, 4).sum(axis=1)
    if np.any(mass <= 0):
        raise ValueError("tilt removes all probability mass")
    tilted /= mass[:, None, None]

    # one-round specs: U drawn from x, and V drawn from y on the transposed tables
    sides_u = _info_splits(tilted, [(np.asarray(r["channel_u"], dtype=float),) for r in records])
    with_v = [b for b, r in enumerate(records) if r.get("channel_v") is not None]
    sides_v = dict(zip(with_v, _info_splits(
        tilted[with_v].transpose(0, 2, 1),
        [(np.asarray(records[b]["channel_v"], dtype=float),) for b in with_v],
    )))
    return [_tilted_result(r, f[b], g[b], sides_u[b], sides_v.get(b))
            for b, r in enumerate(records)]


def _tilted_result(record, f, g, side_u: InfoSplit, side_v: InfoSplit | None) -> CheckResult:
    rho, channel_u, channel_v = record["rho"], record["channel_u"], record.get("channel_v")
    cross_u, own_u = side_u.interchanged, side_u.injected
    margin = rho * rho * own_u - cross_u
    values = {"margin_u": margin, "cross_u": cross_u, "own_u": own_u}
    if side_v is not None:
        cross_v, own_v = side_v.interchanged, side_v.injected
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
    return _binary_input_batch([{"p": p, "q": q, "channel": channel, "pa": pa}])[0]


def _binary_input_batch(records: list) -> list[CheckResult]:
    """binary_input_contraction of each record, stacked by alphabet sizes."""
    pmfs = [
        tuple(np.asarray(v, dtype=float) for v in (r["p"], r["q"], r.get("pa", (0.5, 0.5))))
        for r in records
    ]
    groups: dict[tuple, list[int]] = {}
    for b, vectors in enumerate(pmfs):
        groups.setdefault(tuple(v.shape for v in vectors), []).append(b)
    results: list = [None] * len(records)
    for (p_shape, q_shape, pa_shape), members in groups.items():
        p, q, pa = (np.stack([pmfs[b][k] for b in members]) for k in range(3))
        for stack, name in ((p, "p"), (q, "q"), (pa, "pa")):
            _check_pmfs(stack, name)
        if p_shape != q_shape or len(p_shape) != 1:
            raise ValueError("output pmfs must be 1-D with matching alphabets")
        if pa_shape != (2,):
            raise ValueError(f"input pmf pa must have 2 entries, got shape {pa_shape}")
        affinity = np.sqrt(p * q).sum(axis=1)
        coeffs = 1.0 - affinity * affinity
        # A is the x side and B the y side of a one-round spec that reads A
        channels = [np.asarray(records[b]["channel"], dtype=float) for b in members]
        splits = _info_splits(pa[:, :, None] * np.stack([p, q], axis=1),
                              [(chan,) for chan in channels])
        for row, (b, coeff, split) in enumerate(zip(members, coeffs.tolist(), splits)):
            results[b] = _binary_input_result(
                p[row], q[row], pa[row], channels[row], coeff, split.injected,
                split.interchanged,
            )
    return results


def _binary_input_result(p, q, pa, channel, coeff, i_ua, i_ub) -> CheckResult:
    margin = coeff * i_ua - i_ub
    values = {"i_ua": i_ua, "i_ub": i_ub, "coefficient": coeff}
    return _result(
        "binary_input_contraction", margin >= -_ONE_SHOT_TOL, margin, values,
        lambda: {"p": p.tolist(), "q": q.tolist(),
                 "channel": channel.tolist(), "pa": pa.tolist()},
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
    return _tensor_batch([{"source1": source1, "source2": source2, "channels": spec_channels,
                           "sup1": sup1, "sup2": sup2, "slack": slack}])[0]


def _tensor_batch(records: list) -> list[CheckResult]:
    """verify_tensorization of each record, stacked; one product per source pair."""
    products: dict[tuple, np.ndarray] = {}
    sources = []
    for r in records:
        key = (id(r["source1"]), id(r["source2"]))
        if key not in products:
            products[key] = _live(r["source1"], FiniteJoint, FiniteJoint).product(
                _live(r["source2"], FiniteJoint, FiniteJoint)
            ).probs
        sources.append(products[key])
    channels = [tuple(np.asarray(c, dtype=float) for c in r["channels"]) for r in records]
    splits = _info_splits(sources, channels)
    return [_tensor_result(r, split) for r, split in zip(records, splits)]


def _tensor_result(record, split: InfoSplit) -> CheckResult:
    ratio = _search_ratio(split)
    sup1, sup2, slack = record["sup1"], record["sup2"], record["slack"]
    ceiling = max(sup1, sup2) + slack
    values = {"ratio": ratio, "ceiling": ceiling, "sup1": sup1, "sup2": sup2}
    return _result(
        "tensorization", ratio <= ceiling, ceiling - ratio, {**values, "split": split},
        lambda: {
            "source1": _live(record["source1"], FiniteJoint, FiniteJoint).probs.tolist(),
            "source2": _live(record["source2"], FiniteJoint, FiniteJoint).probs.tolist(),
            "channels": [np.asarray(c).tolist() for c in record["channels"]],
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
    # the spec's joint and the reference joint, as one stack
    joints = _joints(np.stack([src.probs, ref_source.probs]),
                     [chan[None] for chan in spec.channels])
    (with_x, with_x_ref), (with_y, with_y_ref) = _sides(joints)
    d_x = kl(with_x, with_x_ref)
    d_y = kl(with_y, with_y_ref)

    # the chain identities: I(X;Y) - I(X;Y|U^r) and I(U^r;X,Y)
    spec_joint = joints[:1]
    _check_joints(spec_joint)
    interchanged = float(mutual_info(src) - _cond_mutual_info_rows(
        spec_joint.reshape(1, src.nx, src.ny, -1))[0])
    injected = float(_mutual_info_rows(spec_joint.reshape(1, src.nx * src.ny, -1))[0])
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

    # the joints under both hypotheses, as one stack
    joints = _joints(
        np.stack([spec.source.probs, _shifted_source(0.0, params.alpha, params.s).probs]),
        [chan[None] for chan in spec.channels],
    )
    # laws of (X', W0, U) and (W0, Y', U)
    x1, x0 = _sides(joints)[0]
    y1, y0 = joints.reshape(2, 2, 4, -1).sum(axis=1)
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
    if not _is_number(n, integral=True) or n < 1:
        raise ValueError(f"coordinate count must be a positive integer, got {n!r}")
    minus = np.zeros(1, dtype=np.int64)  # -1 signs per row; symbol 1 encodes -1
    for _ in range(n):
        minus = np.concatenate([minus, minus + 1])
    return np.eye(2)[(2 * minus < n).astype(np.intp)]  # ties go to symbol 0


def _noised(table: np.ndarray, n: int, rho: float) -> np.ndarray:
    """T_rho applied to the columns of a (2^n, m) table.

    The rows are indexed by n binary coordinates, and (T_rho f)(x) =
    E[f(y) | x] where each coordinate of y agrees with x's with
    probability (1 + rho) / 2: the 2x2 kernel [[1+rho, 1-rho], [1-rho,
    1+rho]] / 2 along each coordinate axis in turn, O(n 2^n m) work.
    """
    keep, flip = (1.0 + rho) / 2.0, (1.0 - rho) / 2.0
    cols = table.shape[1]
    for k in range(n):
        pairs = table.reshape(2 ** (n - 1 - k), 2, 2**k * cols)
        lo, hi = pairs[:, 0], pairs[:, 1]
        table = np.stack([keep * lo + flip * hi, flip * lo + keep * hi], axis=1)
    return table.reshape(2**n, cols)


def _xlog2x(t: np.ndarray) -> np.ndarray:
    """t log2 t entrywise, with 0 log 0 = 0."""
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = t[pos] * np.log2(t[pos])
    return out


def gap_hamming_demo(n: int, spec_channels, c: float = 1.0) -> CheckResult:
    """Sign-of-correlation testing needs order n bits of transcript.

    The hidden bit U flips the correlation of an n-coordinate +-1 source
    between +c/sqrt(n) and -c/sqrt(n). For the given transcript channels,
    computes I(U; transcript) exactly, bounds it by the mixture divergence
    (1/2) sum_sign D(P^sign_{X,U^r} || P^0_{X,U^r}), and bounds that by
    rho0^2 I(transcript; X,Y) under the mixture. implied_k_lower =
    I(U;transcript) / rho0^2 is the budget needed to make the transcript
    useful, i.e. Theta(n) when I(U;transcript) is order 1.

    The source is a product of binary-symmetric pairs, so P(x, y, u) =
    P_rho(x, y) A(x, u) B(y, u), where A multiplies Alice's (odd-round)
    channel entries along the transcript u and B Bob's, and
    P^sign(x, u) = 2^-n A(x, u) (T_{sign rho0} B(., u))(x) with the
    rho-noise operator T (see _noised). No table larger than 2^n x |U| is
    built, and that size, read from the channel shapes before any entry
    is, is what JOINT_ENTRY_GUARD bounds.
    """
    if not _is_number(n, integral=True) or n < 1:
        raise ValueError(f"coordinate count must be a positive integer, got {n!r}")
    n = int(n)
    channels = [np.asarray(chan, dtype=float) for chan in spec_channels]
    sizes = [chan.shape[-1] for chan in channels if chan.ndim]  # _check_rounds rejects 0-d
    # 2^n |U|, with n clipped where any |U| >= 1 is over the guard already
    _check_entries(max(math.prod(sizes), 1) << min(n, JOINT_ENTRY_GUARD.bit_length()))
    rho0 = c / math.sqrt(n)
    if not 0 < rho0 <= 1:
        raise ValueError(f"per-coordinate correlation {rho0} outside (0, 1]")

    size = 2**n
    _check_rounds(size, size, [chan[None] for chan in channels])
    # sides[0] is A, sides[1] is B, each over (x or y, u_1, ..., u_r)
    sides = [np.ones((size, *sizes)), np.ones((size, *sizes))]
    for i, chan in enumerate(channels):
        lifted = chan.reshape(chan.shape + (1,) * (len(channels) - 1 - i))
        sides[i % 2] = sides[i % 2] * lifted
    alice, bob = (side.reshape(size, -1) for side in sides)
    cols = alice.shape[1]

    # T_{-rho} f(x) = T_rho f(x with every coordinate flipped): reversed rows
    noised = _noised(np.concatenate([bob, _xlog2x(bob)], axis=1), n, rho0)
    scale = 2.0**-n
    # column sums run down 2^n rows: summed over a contiguous copy, numpy
    # sums them pairwise, where row by row they drift past PMF_ATOL at n = 20
    with_x_plus = scale * alice * noised[:, :cols]
    with_x_minus = scale * alice * noised[::-1, :cols]
    with_x_null = scale * alice * (scale * bob.T.copy().sum(axis=1))
    mixture_kl_bound = 0.5 * (kl(with_x_plus, with_x_null) + kl(with_x_minus, with_x_null))

    # I(U; transcript) with U the uniform hypothesis bit
    table = 0.5 * np.stack([t.T.copy().sum(axis=1) for t in (with_x_plus, with_x_minus)])
    del with_x_plus, with_x_minus, with_x_null  # each a 2^n x |U| table
    i_u_pi = mutual_info(table)

    # I(transcript; X,Y) under the mixture, H(U^r) - H(U^r | X,Y), where
    # H(U^r | X,Y) = -2^-n sum [A log A T_mix B + A T_mix (B log B)]
    p_u = table.sum(axis=0)  # mutual_info checked table, so p_u is a pmf
    mixed = noised + noised[::-1]
    del noised
    mixed *= 0.5
    h_u_given_xy = -scale * float(
        (_xlog2x(alice) * mixed[:, :cols] + alice * mixed[:, cols:]).sum()
    )
    injected_mix = -float(_xlog2x(p_u).sum()) - h_u_given_xy

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


# Instance generators: draw(rng, seed, draws, run, **args) hands lists of
# drawn instances (each a mapping with the fields of the check's violation
# record) to run, which verifies each list as one batch and returns the
# CheckResults in order; draw returns the sweep's stats beyond
# worst_margin. Verifying draws nothing, so drawing a batch ahead of its
# checks keeps every stream and result of a draw-check-draw loop.

# Instances drawn ahead and verified as one batch: enough to amortize the
# stacked calls, few enough that a sweep's memory does not grow with draws.
SWEEP_BATCH = 256

# Dirichlet(1, ..., 1) weights for the tilted and binary-input draws, whose
# alphabets have at most four letters: sliced, not rebuilt per draw
_FLAT_DIRICHLET = np.ones(4)


def _in_batches(draws: int, run, draw_one: Callable[[], dict]) -> None:
    """run every SWEEP_BATCH instances that draw_one() draws, in draw order."""
    for start in range(0, draws, SWEEP_BATCH):
        run([draw_one() for _ in range(min(SWEEP_BATCH, draws - start))])


def _draw_ratio_ceiling(rng, seed, draws, run, rho):
    # search_max_ratio derives this same stream from seed; rng goes unused
    result = search_max_ratio(FiniteJoint.binary_symmetric(rho), 3, 3, draws, seed,
                              ceiling=rho * rho + 1e-9, _run=run)
    return {"best_ratio": result.best_ratio}


def _draw_tilted(rng, seed, draws, run, rho):
    def draw_one():
        f, g = rng.random(2) * 2.0, rng.random(2) * 2.0
        m_u, m_v = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        return {"rho": rho, "f": f, "g": g,
                "channel_u": rng.dirichlet(_FLAT_DIRICHLET[:m_u], size=2),
                "channel_v": rng.dirichlet(_FLAT_DIRICHLET[:m_v], size=2)}

    _in_batches(draws, run, draw_one)
    return {}


def _draw_binary_input(rng, seed, draws, run):
    def draw_one():
        b_size = int(rng.integers(2, 5))
        weights = _FLAT_DIRICHLET[:b_size]
        p, q = rng.dirichlet(weights), rng.dirichlet(weights)
        u_size = int(rng.integers(2, 4))
        return {"p": p, "q": q, "channel": rng.dirichlet(_FLAT_DIRICHLET[:u_size], size=2)}

    _in_batches(draws, run, draw_one)
    return {}


def _draw_tensorization(rng, seed, draws, run, rho1, rho2):
    source1 = FiniteJoint.binary_symmetric(rho1)
    source2 = FiniteJoint.binary_symmetric(rho2)
    sup1 = search_max_ratio(source1, restarts=400, seed=seed).best_ratio
    sup2 = search_max_ratio(source2, restarts=400, seed=seed + 1).best_ratio
    _in_batches(draws, run, lambda: {
        "source1": source1, "source2": source2,
        "channels": _random_channels(4, 4, 2, 2, rng),
        "sup1": sup1, "sup2": sup2, "slack": TENSOR_SLACK,
    })
    return {"sup1": sup1, "sup2": sup2}


# The chain, shift and gap-hamming checks verify one instance at a time.

def _draw_chain(rng, seed, draws, run, rhos):
    # draws is split evenly over rhos, rounding up, at least one each
    one_way_worst = 0.0
    for rho in rhos:
        for _ in range(max(1, -(-draws // len(rhos)))):
            n = int(rng.integers(1, 3))
            spec = random_spec(binary_symmetric_product(rho, n), 3, 3, rng)
            gap = run([{"rho": rho, "spec": spec}])[0].values["one_way_gap"]
            if gap is not None:
                one_way_worst = max(one_way_worst, gap)
    return {"one_way_worst_gap": one_way_worst}


def _draw_shift(rng, seed, draws, run, rho0, rho1):
    # channel shapes live on the +-1 alphabets
    for _ in range(draws):
        run([{"rho0": rho0, "rho1": rho1, "channels": _random_channels(2, 2, 3, 3, rng)}])
    return {}


def _draw_gap_hamming(rng, seed, draws, run, n, c):
    # Alice and Bob each send their majority; Alice's alone never reads y,
    # so it carries no information about the correlation sign
    maj = majority_channel(n)
    two_round = (maj, np.repeat(maj[:, None, :], 2, axis=1))
    majority = run([{"n": n, "c": c, "channels": two_round}])[0].values
    for _ in range(draws):
        run([{"n": n, "c": c, "channels": _random_channels(2**n, 2**n, 2, 2, rng)}])
    keys = ("i_u_pi", "mixture_kl_bound", "implied_k_lower")
    return {"majority": {key: majority[key] for key in keys}}


def _live(value, cls, build):
    """The object a sweep drew, or one built from a violation record."""
    return value if isinstance(value, cls) else build(value)


@dataclass(frozen=True)
class Check:
    """One kind of check, named by its violation records' "check" field.

    A sweep over it draws from substream (seed, stream) with the instance
    generator draw and reports under suite; verify(records) checks a list
    of drawn instances or violation records and returns their results in
    order. draws and args are the CLI's defaults; draws None keeps the
    suite off the CLI. verify looks its verifier up when called, so
    wrappers installed on this module see every call.
    """

    suite: str
    stream: str
    draw: Callable[..., dict]
    verify: Callable[[list], list[CheckResult]]
    draws: int | None = None
    args: dict = field(default_factory=dict)


CHECKS = {
    "ratio_ceiling": Check(
        "sdpi", "search_max_ratio", _draw_ratio_ceiling,
        lambda records: _ratio_ceilings(records),
        2000, {"rho": 0.6},
    ),
    "tilted_contraction": Check(
        "tilted", "sweep_tilted", _draw_tilted,
        lambda records: _tilted_batch(records),
        10000, {"rho": 0.7},
    ),
    "binary_input_contraction": Check(
        "binary_contraction", "sweep_binary_contraction", _draw_binary_input,
        lambda records: _binary_input_batch(records),
    ),
    "tensorization": Check(
        "tensor", "sweep_tensorization", _draw_tensorization,
        lambda records: _tensor_batch(records),
        500, {"rho1": 0.4, "rho2": 0.8},
    ),
    "interactive_chain": Check(
        "chain", "sweep_chain", _draw_chain,
        lambda records: [
            verify_interactive_chain(
                _live(r.get("spec", r), InteractiveSpec, InteractiveSpec.from_jsonable),
                r["rho"],
            )
            for r in records
        ],
        201, {"rhos": (0.3, 0.6, 0.9)},
    ),
    "shift_reduction": Check(
        "shift", "sweep_shift", _draw_shift,
        lambda records: [
            verify_shift_reduction(r["rho0"], r["rho1"], r["channels"]) for r in records
        ],
        100, {"rho0": 0.25, "rho1": 0.5},
    ),
    "gap_hamming": Check(
        "gaphamming", "sweep_gap_hamming", _draw_gap_hamming,
        lambda records: [gap_hamming_demo(r["n"], r["channels"], r["c"]) for r in records],
        100, {"n": 8, "c": 1.0},
    ),
}


def sweep(kind: str, draws: int, seed: int, **args) -> SweepOutcome:
    """Verify the instances CHECKS[kind] draws from (seed, its stream).

    args go to the check's instance generator. Stats carry the worst
    margin over all checks, then whatever the generator reports.
    """
    if not _is_number(draws, integral=True):
        raise ValueError(f"draws must be an integer, got {draws!r}")
    if draws < 0:
        raise ValueError(f"draws must be nonnegative, got {draws}")
    check = CHECKS[kind]
    violations = []
    checks = 0
    worst = math.inf

    def run(instances: list, stop=None) -> list[CheckResult]:
        # verify as one batch; count the results through the first that
        # stop accepts (search_max_ratio's speculative climb)
        nonlocal checks, worst
        results = _through_first(check.verify(instances), stop)
        checks += len(results)
        for result in results:
            worst = min(worst, result.margin)
            if not result.ok:
                violations.append(result.instance)
        return results

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
    if _holds_bool(record):  # JSON true/false would pass as the numbers 1 and 0
        raise TypeError("violation record fields hold numbers, not booleans")
    return CHECKS[kind].verify([record])[0]


def _holds_bool(value) -> bool:
    """Whether a JSON value is, or nests, a boolean."""
    if isinstance(value, (dict, list)):
        return any(map(_holds_bool, value.values() if isinstance(value, dict) else value))
    return isinstance(value, bool)
