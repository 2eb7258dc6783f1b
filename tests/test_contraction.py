"""Interactive-spec machinery and the information-contraction verifiers.

The inequalities under test are mathematically true, so honest inputs
can never produce a violation; the replay path is exercised through
artificially low ceilings and deliberately mislabeled correlations.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import corrcomm.contraction
from corrcomm import (
    CHECKS,
    FiniteJoint,
    InfoSplit,
    InteractiveSpec,
    binary_input_contraction,
    binary_symmetric_product,
    build_joint,
    compute_info_split,
    gap_hamming_demo,
    kl,
    majority_channel,
    mutual_info,
    random_spec,
    replay_violation,
    search_max_ratio,
    sweep,
    verify_interactive_chain,
    verify_ratio_ceiling,
    verify_shift_reduction,
    verify_tensorization,
    verify_tilted_contraction,
)
from corrcomm.infotheory import PMF_ATOL, _kl_rows
from corrcomm.rng import substream

SEED = 1123

IDENTITY = np.eye(2)
MI_06 = mutual_info(FiniteJoint.binary_symmetric(0.6))


def one_way_identity(rho):
    return InteractiveSpec(
        source=FiniteJoint.binary_symmetric(rho), channels=(IDENTITY,)
    )


def two_round_spec(rho, rng):
    src = FiniteJoint.binary_symmetric(rho)
    spec = random_spec(src, r_max=2, u_max=3, rng=rng)
    while spec.rounds != 2:
        spec = random_spec(src, r_max=2, u_max=3, rng=rng)
    return spec


# ----------------------------------------------------------------------
# spec container and joint materialization
# ----------------------------------------------------------------------

def test_spec_accepts_zero_rounds():
    spec = InteractiveSpec(source=FiniteJoint.binary_symmetric(0.5), channels=())
    assert spec.rounds == 0
    assert spec.message_bits == 0.0
    assert build_joint(spec).shape == (2, 2)


def test_spec_shape_checks():
    src = FiniteJoint.binary_symmetric(0.5)
    with pytest.raises(ValueError):
        InteractiveSpec(source=src, channels=(np.eye(3),))
    # round 2 must read y and condition on the round-1 alphabet
    with pytest.raises(ValueError):
        InteractiveSpec(source=src, channels=(IDENTITY, IDENTITY))
    good = np.full((2, 2, 2), 0.5)
    InteractiveSpec(source=src, channels=(IDENTITY, good))


def test_spec_pmf_checks():
    src = FiniteJoint.binary_symmetric(0.5)
    with pytest.raises(ValueError):
        InteractiveSpec(source=src, channels=(np.array([[1.0, -0.0001e1], [0, 1]]),))
    with pytest.raises(ValueError):
        InteractiveSpec(source=src, channels=(np.full((2, 2), 0.4),))
    with pytest.raises(ValueError):
        InteractiveSpec(source=src, channels=(np.zeros((2, 0)),))


def test_spec_json_round_trip():
    rng = substream(SEED, "json-round-trip")
    spec = two_round_spec(0.4, rng)
    clone = InteractiveSpec.from_jsonable(spec.to_jsonable())
    assert clone.source.probs == pytest.approx(spec.source.probs)
    for a, b in zip(clone.channels, spec.channels):
        assert a == pytest.approx(b)


def test_binary_symmetric_product():
    pair = binary_symmetric_product(0.6, 2)
    assert pair.probs.shape == (4, 4)
    single = FiniteJoint.binary_symmetric(0.6)
    assert mutual_info(pair) == pytest.approx(2 * mutual_info(single), abs=1e-12)
    with pytest.raises(ValueError):
        binary_symmetric_product(0.6, 0)
    with pytest.raises(ValueError, match="coordinate count"):
        binary_symmetric_product(0.5, True)  # a bool is not a count


def test_build_joint_identity_channel():
    joint = build_joint(one_way_identity(0.5))
    src = FiniteJoint.binary_symmetric(0.5).probs
    expected = np.zeros((2, 2, 2))
    for x in range(2):
        expected[x, :, x] = src[x]
    assert joint == pytest.approx(expected, abs=1e-15)


def test_build_joint_guard():
    big_src = binary_symmetric_product(0.0, 10)  # 1024 x 1024
    wide = np.full((1024, 16), 1.0 / 16)
    with pytest.raises(ValueError):
        build_joint(InteractiveSpec(source=big_src, channels=(wide,)))


# ----------------------------------------------------------------------
# information decomposition
# ----------------------------------------------------------------------

def test_info_split_identity_spec():
    split = compute_info_split(one_way_identity(0.5))
    # the transcript is x itself: one full bit in, I(X;Y) across
    assert split.injected == pytest.approx(1.0, abs=1e-12)
    assert split.interchanged == pytest.approx(0.18872187554086717, abs=1e-12)
    assert split.ratio == pytest.approx(split.interchanged, abs=1e-12)
    # the chain verifier's transcript identities give the same sums
    chain = verify_interactive_chain(one_way_identity(0.5), 0.5).values
    assert chain["interchanged"] == pytest.approx(split.interchanged, abs=1e-12)
    assert chain["injected"] == pytest.approx(1.0, abs=1e-12)


def test_info_split_chain_identities_on_random_specs():
    rng = substream(SEED, "split-identities")
    for _ in range(20):
        spec = random_spec(FiniteJoint.binary_symmetric(0.7), 3, 3, rng)
        split = compute_info_split(spec)
        chain = verify_interactive_chain(spec, 0.7).values
        assert abs(split.interchanged - chain["interchanged"]) < 1e-9
        assert abs(split.injected - chain["injected"]) < 1e-9
        assert split.interchanged <= 0.49 * split.injected + 1e-9


def test_random_spec_validation():
    rng = substream(SEED, "random-spec-validation")
    src = FiniteJoint.binary_symmetric(0.5)
    with pytest.raises(ValueError, match="r_max must be an integer >= 1, got 0"):
        random_spec(src, r_max=0, u_max=2, rng=rng)
    with pytest.raises(ValueError, match="u_max must be an integer >= 2, got 1"):
        random_spec(src, r_max=1, u_max=1, rng=rng)


def test_info_split_constant_channel_has_zero_ratio():
    flat = np.full((2, 2), 0.5)
    split = compute_info_split(
        InteractiveSpec(source=FiniteJoint.binary_symmetric(0.9), channels=(flat,))
    )
    assert split.injected == pytest.approx(0.0, abs=1e-12)
    assert split.ratio == 0.0


# ----------------------------------------------------------------------
# ratio search
# ----------------------------------------------------------------------

def test_search_respects_the_square_ceiling():
    result = search_max_ratio(
        FiniteJoint.binary_symmetric(0.6),
        restarts=60,
        ascent_steps=60,
        seed=SEED,
        ceiling=0.36 + 1e-9,
    )
    assert result.violations == []
    assert 0.0 < result.best_ratio <= 0.36 + 1e-9
    assert result.max_ratio_seen <= 0.36 + 1e-9
    assert result.evaluations == 60 + 3 * 60
    assert result.best_split.ratio == pytest.approx(result.best_ratio)


def test_search_low_ceiling_records_replayable_violations():
    result = search_max_ratio(
        FiniteJoint.binary_symmetric(0.6),
        restarts=30,
        ascent_steps=0,
        seed=SEED,
        ceiling=0.01,
    )
    assert result.violations
    record = result.violations[0]
    assert record["check"] == "ratio_ceiling"
    replay = replay_violation(record)
    assert not replay.ok
    assert replay.values["ratio"] == pytest.approx(record["ratio"], abs=1e-12)


def test_replay_rejects_unknown_records():
    with pytest.raises(ValueError):
        replay_violation({"check": "flat_earth"})


# ----------------------------------------------------------------------
# tilted and binary-input contraction
# ----------------------------------------------------------------------

def test_tilted_identity_channel_margins():
    report = verify_tilted_contraction(
        0.7, [1.0, 1.0], [1.0, 1.0], IDENTITY, IDENTITY
    )
    assert report.ok
    mi_07 = mutual_info(FiniteJoint.binary_symmetric(0.7))
    assert report.values["own_u"] == pytest.approx(1.0, abs=1e-12)
    assert report.values["cross_u"] == pytest.approx(mi_07, abs=1e-12)
    assert report.values["margin_u"] == pytest.approx(0.49 - mi_07, abs=1e-12)
    assert report.values["margin_v"] == pytest.approx(
        report.values["margin_u"], abs=1e-12
    )


def test_tilted_asymmetric_tilts_hold():
    rng = substream(SEED, "tilts")
    for _ in range(50):
        f = rng.random(2) * 3
        g = rng.random(2) * 3
        chan = rng.dirichlet(np.ones(3), size=2)
        report = verify_tilted_contraction(0.8, f, g, chan)
        assert report.ok, report


def test_tilted_validation():
    with pytest.raises(ValueError):
        verify_tilted_contraction(0.5, [1.0], [1.0, 1.0], IDENTITY)
    with pytest.raises(ValueError):
        verify_tilted_contraction(0.5, [-1.0, 1.0], [1.0, 1.0], IDENTITY)
    with pytest.raises(ValueError):
        verify_tilted_contraction(0.5, [0.0, 0.0], [1.0, 1.0], IDENTITY)
    with pytest.raises(ValueError):
        verify_tilted_contraction(0.5, [1.0, 1.0], [1.0, 1.0], np.eye(3))
    with pytest.raises(ValueError):
        verify_tilted_contraction(0.5, [1, 1], [1, 1], np.full((2, 2), 0.4))


def test_binary_input_equal_outputs():
    p = [0.3, 0.7]
    report = binary_input_contraction(p, p, IDENTITY)
    assert report.ok
    assert report.values["coefficient"] == pytest.approx(0.0, abs=1e-12)
    assert report.values["i_ub"] == pytest.approx(0.0, abs=1e-12)
    assert report.values["i_ua"] == pytest.approx(1.0, abs=1e-12)


def test_binary_input_disjoint_outputs():
    # disjoint supports identify A exactly, and the coefficient hits 1
    report = binary_input_contraction([1.0, 0.0], [0.0, 1.0], IDENTITY)
    assert report.values["coefficient"] == pytest.approx(1.0, abs=1e-12)
    assert report.values["i_ub"] == pytest.approx(report.values["i_ua"], abs=1e-12)
    assert report.margin == pytest.approx(0.0, abs=1e-12)
    assert report.ok


def test_binary_input_skewed_prior():
    report = binary_input_contraction(
        [0.6, 0.4], [0.1, 0.9], IDENTITY, pa=(0.2, 0.8)
    )
    assert report.ok
    assert report.values["i_ua"] < 1.0  # skewed prior carries less than a bit


def test_binary_input_validation():
    with pytest.raises(ValueError):
        binary_input_contraction([0.5, 0.5], [0.5, 0.3, 0.2], IDENTITY)
    with pytest.raises(ValueError):
        binary_input_contraction([0.5, 0.5], [0.5, 0.5], np.eye(3))
    # rows that are not pmfs, though the product with pa sums to one
    with pytest.raises(ValueError, match="p sums to"):
        binary_input_contraction([0.6, 0.6], [0.4, 0.4], IDENTITY)
    with pytest.raises(ValueError, match="pa sums to"):
        binary_input_contraction([0.5, 0.5], [0.5, 0.5], IDENTITY, pa=(0.7, 0.7))
    with pytest.raises(ValueError, match="2 entries"):
        binary_input_contraction([0.5, 0.5], [0.5, 0.5], IDENTITY, pa=(0.5, 0.25, 0.25))


def test_one_shot_checks_read_the_info_split_of_their_one_round_spec():
    # injected is I(U;X) and interchanged I(U;Y) of a message drawn from x
    rng = substream(SEED, "one-shot-splits")
    for _ in range(20):
        rho, f, g = 0.7, rng.random(2) * 2.0, rng.random(2) * 2.0
        channel_u = rng.dirichlet(np.ones(3), size=2)
        channel_v = rng.dirichlet(np.ones(2), size=2)
        values = verify_tilted_contraction(rho, f, g, channel_u, channel_v).values
        tilted = f[:, None] * g[None, :] * FiniteJoint.binary_symmetric(rho).probs
        tilted /= tilted.sum()
        for table, channel, side in ((tilted, channel_u, "u"), (tilted.T, channel_v, "v")):
            split = compute_info_split(InteractiveSpec(FiniteJoint(table), (channel,)))
            assert values[f"own_{side}"] == split.injected
            assert values[f"cross_{side}"] == split.interchanged

        p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        pa, channel = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3), size=2)
        values = binary_input_contraction(p, q, channel, pa).values
        table = pa[:, None] * np.stack([p, q])
        split = compute_info_split(InteractiveSpec(FiniteJoint(table), (channel,)))
        assert values["i_ua"] == split.injected
        assert values["i_ub"] == split.interchanged


# ----------------------------------------------------------------------
# interactive chain
# ----------------------------------------------------------------------

def test_chain_one_way_identity_values():
    report = verify_interactive_chain(one_way_identity(0.6), 0.6)
    assert report.ok
    values = report.values
    assert values["one_way_gap"] == pytest.approx(0.0, abs=1e-12)
    assert values["div_transcript_y"] == pytest.approx(MI_06, abs=1e-12)
    assert values["interchanged"] == pytest.approx(MI_06, abs=1e-12)
    assert values["injected"] == pytest.approx(1.0, abs=1e-12)
    assert values["rho_sq_injected"] == pytest.approx(0.36, abs=1e-12)
    assert report.instance is None


def test_chain_lying_rho_is_caught_and_replays():
    # claiming rho = 0.1 for a source whose true correlation is 0.6
    report = verify_interactive_chain(one_way_identity(0.6), 0.1)
    assert not report.ok
    assert report.instance["check"] == "interactive_chain"
    replay = replay_violation(report.instance)
    assert not replay.ok
    assert replay.values["interchanged"] == pytest.approx(MI_06, abs=1e-12)


def test_chain_two_round_random_specs():
    rng = substream(SEED, "chain-two-round")
    for rho in (0.3, 0.8):
        spec = two_round_spec(rho, rng)
        report = verify_interactive_chain(spec, rho)
        assert report.ok
        values = report.values
        assert values["one_way_gap"] is None
        assert max(values["div_transcript_x"], values["div_transcript_y"]) <= (
            values["interchanged"] + 1e-9
        )


# ----------------------------------------------------------------------
# shift reduction
# ----------------------------------------------------------------------

def test_shift_reduction_one_round_bound():
    report = verify_shift_reduction(0.25, 0.5, (IDENTITY,))
    assert report.ok
    values = report.values
    assert values["rho_input"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert values["message_bits"] == 1.0
    assert values["bound"] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert max(values["div_x"], values["div_y"]) <= values["bound"] + 1e-10


def test_shift_reduction_two_rounds_and_negative_base():
    chan2 = np.full((2, 2, 2), 0.5)
    chan2[:, :, 0] = np.array([[0.9, 0.2], [0.4, 0.6]])
    chan2[:, :, 1] = 1.0 - chan2[:, :, 0]
    report = verify_shift_reduction(-0.3, 0.2, (IDENTITY, chan2))
    assert report.ok
    assert report.values["message_bits"] == 2.0
    assert report.values["rho_input"] == pytest.approx(0.5 / 0.7, abs=1e-12)


def test_shift_reduction_validation():
    with pytest.raises(ValueError):
        verify_shift_reduction(0.25, 0.5, (np.eye(4),))  # wrong input size


# ----------------------------------------------------------------------
# two-hypothesis mixture demo
# ----------------------------------------------------------------------

def test_majority_channel_table():
    table = majority_channel(3)
    assert table.shape == (8, 2)
    assert table.sum(axis=1) == pytest.approx(np.ones(8))
    assert table[0, 1] == 1.0  # all +1 votes
    assert table[7, 0] == 1.0  # all -1 votes
    tie = majority_channel(2)
    assert tie[0b01, 0] == 1.0  # one of each, tie goes to symbol 0


def test_majority_channel_counts_every_row():
    for n in range(1, 11):
        table = np.zeros((2**n, 2))
        for idx in range(2**n):
            minus = bin(idx).count("1")  # symbol 1 encodes -1
            table[idx, 1 if n - minus > minus else 0] = 1.0
        assert np.array_equal(majority_channel(n), table), n
    for n in (0, -1, 2.5, True):  # a bool is not a count
        with pytest.raises(ValueError, match="coordinate count"):
            majority_channel(n)


def test_gap_hamming_one_way_transcript_is_blind():
    # a transcript computed from x alone cannot see the correlation sign
    report = gap_hamming_demo(4, (majority_channel(4),))
    assert report.ok
    assert report.values["i_u_pi"] == pytest.approx(0.0, abs=1e-12)
    assert report.values["mixture_kl_bound"] >= -1e-12
    assert report.values["rho0"] == pytest.approx(0.5, abs=1e-15)


def test_gap_hamming_two_rounds_carry_signal():
    n = 2
    chan1 = majority_channel(n)
    # round 2: Bob reports his own majority, ignoring the history axis
    vote = majority_channel(n)
    chan2 = np.stack([vote, vote], axis=1)  # (y, u1, u2)
    report = gap_hamming_demo(n, (chan1, chan2), c=1.0)
    assert report.ok
    values = report.values
    assert values["i_u_pi"] > 1e-4
    assert values["i_u_pi"] <= values["mixture_kl_bound"] + 1e-12
    assert values["mixture_kl_bound"] <= (
        values["rho0"] ** 2 * values["injected_mixture"] + 1e-12
    )
    assert values["implied_k_lower"] == pytest.approx(
        values["i_u_pi"] / values["rho0"] ** 2, abs=1e-12
    )


def two_round_majority(n):
    """Alice sends her majority, then Bob his, whatever Alice said."""
    vote = majority_channel(n)
    return vote, np.repeat(vote[:, None, :], 2, axis=1)


def test_gap_hamming_two_round_majority_scales_like_n():
    # a 2-bit protocol's information about the sign falls like 1/n, so
    # n I(U;transcript) / c^2 stays order one, under its 2 injected bits
    for n in (4, 8, 12, 16, 18):
        report = gap_hamming_demo(n, two_round_majority(n), c=1.0)
        assert report.ok, n
        assert 0.25 < report.values["implied_k_lower"] < 2.0, n


def test_gap_hamming_sums_hold_at_n_20():
    # 2^20-row column sums stay within PMF_ATOL of a pmf only when they
    # are summed pairwise
    assert PMF_ATOL == 1e-12
    report = gap_hamming_demo(20, two_round_majority(20), c=1.0)
    assert report.ok
    assert report.margin > 0


def test_gap_hamming_drops_its_tables_once_used():
    # The two-round majority at n = 16 has 2 MiB 2^n x |U| tables. Kept to
    # the end, every intermediate table made a 23.25 MiB traced peak (11.6
    # tables); dropped once used, with the mixture formed in place, 17.25.
    channels = two_round_majority(16)
    tracemalloc.start()
    try:
        gap_hamming_demo(16, channels, c=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def gap_hamming_oracle(n, channels, c):
    """gap_hamming_demo's values and ok from the full 4^n x |U| joints."""
    rho0 = c / math.sqrt(n)
    plus, minus, null = (
        build_joint(InteractiveSpec(binary_symmetric_product(rho, n), tuple(channels)))
        for rho in (rho0, -rho0, 0.0)
    )

    def with_x(joint):
        return joint.sum(axis=1).reshape(2**n, -1)

    mixture_kl_bound = 0.5 * kl(with_x(plus), with_x(null)) + 0.5 * kl(
        with_x(minus), with_x(null)
    )
    i_u_pi = mutual_info(
        0.5 * np.stack([plus.sum(axis=(0, 1)).ravel(), minus.sum(axis=(0, 1)).ravel()])
    )
    injected = mutual_info((0.5 * (plus + minus)).reshape(4**n, -1))
    ok = (
        i_u_pi <= mixture_kl_bound + corrcomm.contraction.TOL
        and mixture_kl_bound <= rho0**2 * injected + corrcomm.contraction.TOL
    )
    values = {"i_u_pi": i_u_pi, "mixture_kl_bound": mixture_kl_bound,
              "injected_mixture": injected}
    return values, ok


def deterministic_channels(n):
    """Zero-one channels: majority votes, parities and a two-round echo."""
    size = 2**n
    parity = np.array([bin(i).count("1") % 2 for i in range(size)])
    parity_chan = np.eye(2)[parity]  # (x, u1)
    vote = majority_channel(n)
    # round 2: Bob's parity xor Alice's message, a function of (y, u1)
    echo = np.stack([np.eye(2)[parity], np.eye(2)[1 - parity]], axis=1)
    # round 3: Alice's majority again, whatever the history
    third = np.broadcast_to(vote[:, None, None, :], (size, 2, 2, 2))
    return [(vote,), (parity_chan,), (vote, echo), (parity_chan, echo, third)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gap_hamming_matches_the_full_joint(n):
    rng = substream(SEED, f"gap_hamming_oracle/{n}")
    shape = binary_symmetric_product(0.0, n)
    drawn = [random_spec(shape, r_max=3, u_max=3, rng=rng).channels for _ in range(12)]
    assert {len(channels) for channels in drawn} == {1, 2, 3}
    for c in (math.sqrt(n), 0.3):  # rho0 = 1, and a weak per-coordinate signal
        for channels in drawn + deterministic_channels(n):
            report = gap_hamming_demo(n, channels, c)
            values, ok = gap_hamming_oracle(n, channels, c)
            assert report.ok == ok
            for key, value in values.items():
                assert abs(report.values[key] - value) <= 1e-12, (key, len(channels), c)


def test_gap_hamming_validation(monkeypatch):
    with pytest.raises(ValueError, match="coordinate count"):
        gap_hamming_demo(0, (IDENTITY,))
    with pytest.raises(ValueError, match="coordinate count"):
        gap_hamming_demo(True, (IDENTITY,))  # a bool is not a count
    with pytest.raises(ValueError):
        gap_hamming_demo(4, (majority_channel(4),), c=3.0)  # rho0 = 1.5

    # 2^24 x 2 tables are over the guard, which reads only the shapes
    def scanned(*args):
        raise AssertionError("channel entries scanned before the guard")

    monkeypatch.setattr(corrcomm.contraction, "_check_rounds", scanned)
    lazy = np.broadcast_to(np.array([1.0, 0.0]), (2**24, 2))
    with pytest.raises(ValueError, match="guard"):
        gap_hamming_demo(24, (lazy,))
    with pytest.raises(ValueError, match="guard"):
        gap_hamming_demo(10**12, (IDENTITY,))  # 2^n is never formed


# ----------------------------------------------------------------------
# randomized sweeps
# ----------------------------------------------------------------------

def test_sweep_suite_names_and_clean_runs():
    outcomes = [
        sweep("tilted_contraction", 50, SEED, rho=0.7),
        sweep("binary_input_contraction", 50, SEED),
        sweep("interactive_chain", 10, SEED, rhos=(0.3, 0.9)),
        sweep("tensorization", 5, SEED, rho1=0.4, rho2=0.8),
        sweep("shift_reduction", 10, SEED, rho0=0.25, rho1=0.5),
        sweep("gap_hamming", 10, SEED, n=4, c=1.0),
    ]
    names = [o.suite for o in outcomes]
    assert names == [
        "tilted",
        "binary_contraction",
        "chain",
        "tensor",
        "shift",
        "gaphamming",
    ]
    for outcome in outcomes:
        assert outcome.ok, outcome.suite
        assert outcome.violations == []
        assert outcome.stats["worst_margin"] >= -1e-10
    assert outcomes[2].checks == 10
    assert outcomes[5].checks == 11  # majority demo plus the random draws
    assert "majority" in outcomes[5].stats
    assert outcomes[5].stats["majority"]["i_u_pi"] > 0  # two rounds see the sign


def test_sweep_rejects_negative_draws():
    # a negative count once ran no check and reported worst_margin inf
    for kind in ("tilted_contraction", "ratio_ceiling", "tensorization"):
        with pytest.raises(ValueError, match="draws must be an integer >= 0, got -1"):
            sweep(kind, -1, SEED, **CHECKS[kind].args)


@pytest.mark.parametrize("draws", [2.5, True, "3"])
def test_sweep_rejects_draws_that_are_not_integers(draws):
    # 2.5 once failed inside range() with a TypeError, and True ran one check
    with pytest.raises(ValueError, match="draws must be an integer"):
        sweep("tilted_contraction", draws, SEED, rho=0.7)


def test_sweeps_are_deterministic():
    a = sweep("tilted_contraction", 30, SEED, rho=0.7)
    b = sweep("tilted_contraction", 30, SEED, rho=0.7)
    assert a == b
    c = sweep("tilted_contraction", 30, SEED + 1, rho=0.7)
    assert a.stats["worst_margin"] != c.stats["worst_margin"]


def test_check_table_calls_through_module_attributes(monkeypatch):
    # wrappers installed on the module (tracers, test doubles) see every call
    calls = []
    original = corrcomm.contraction.verify_shift_reduction

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(corrcomm.contraction, "verify_shift_reduction", spy)
    outcome = sweep("shift_reduction", 4, SEED, rho0=0.25, rho1=0.5)
    assert len(calls) == outcome.checks == 4
    record = {"check": "shift_reduction", "rho0": 0.25, "rho1": 0.5,
              "channels": [IDENTITY.tolist()]}
    assert replay_violation(record).ok
    assert len(calls) == 5


def test_sdpi_sweep_runs_through_search_max_ratio(monkeypatch):
    # tracers count the sdpi evaluations on search_max_ratio's result
    results = []
    original = corrcomm.contraction.search_max_ratio

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(corrcomm.contraction, "search_max_ratio", spy)
    outcome = sweep("ratio_ceiling", 5, SEED, rho=0.6)
    assert [result.evaluations for result in results] == [outcome.checks]
    assert outcome.stats["best_ratio"] == results[0].best_ratio


def test_verify_tensorization_direct():
    s1 = FiniteJoint.binary_symmetric(0.4)
    s2 = FiniteJoint.binary_symmetric(0.8)
    rng = substream(SEED, "tensor-direct")
    spec = random_spec(s1.product(s2), r_max=2, u_max=2, rng=rng)
    report = verify_tensorization(
        s1, s2, spec.channels, sup1=0.16, sup2=0.64, slack=0.02
    )
    assert report.ok
    assert report.values["ceiling"] == pytest.approx(0.66, abs=1e-12)
    assert report.values["ratio"] <= report.values["ceiling"]


def test_tensorization_replay_uses_the_recorded_ceiling(monkeypatch):
    s1 = FiniteJoint.binary_symmetric(0.4)
    s2 = FiniteJoint.binary_symmetric(0.8)
    rng = substream(SEED, "tensor-replay")
    spec = random_spec(s1.product(s2), r_max=2, u_max=2, rng=rng)
    ratio = verify_tensorization(s1, s2, spec.channels, sup1=1.0, sup2=1.0).values[
        "ratio"
    ]
    assert ratio > 0.0
    # sups well below the true ones: the ceiling sits under the ratio
    report = verify_tensorization(
        s1, s2, spec.channels, sup1=ratio / 4, sup2=ratio / 2, slack=ratio / 4
    )
    assert not report.ok
    record = report.instance

    def no_search(*args, **kwargs):
        raise AssertionError("replay must not re-search the sups")

    monkeypatch.setattr(corrcomm.contraction, "search_max_ratio", no_search)
    replay = replay_violation(record)
    assert not replay.ok
    assert replay.values["ceiling"] == record["ceiling"] == pytest.approx(0.75 * ratio)
    assert replay.values["ratio"] == pytest.approx(record["ratio"], abs=1e-12)


# ----------------------------------------------------------------------
# stacked evaluation: a batch gives each instance its scalar numbers
# ----------------------------------------------------------------------

# the public verifier that checks one instance of each batched kind
SCALAR = {
    "ratio_ceiling": lambda r: verify_ratio_ceiling(r["instance"], r["ceiling"]),
    "tilted_contraction": lambda r: verify_tilted_contraction(
        r["rho"], r["f"], r["g"], r["channel_u"], r.get("channel_v")
    ),
    "binary_input_contraction": lambda r: binary_input_contraction(
        r["p"], r["q"], r["channel"], r.get("pa", (0.5, 0.5))
    ),
    "tensorization": lambda r: verify_tensorization(
        r["source1"], r["source2"], r["channels"], r["sup1"], r["sup2"], r["slack"]
    ),
}


def as_hex(value):
    """value with every float inside it (InfoSplit fields too) as float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, InfoSplit):
        return as_hex(dataclasses.astuple(value))
    if isinstance(value, dict):
        return {key: as_hex(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_hex(item) for item in value]
    return value


def fingerprint(result):
    return result.ok, as_hex(result.margin), as_hex(result.values)


def swept(kind, draws, seed, **args):
    """(instance, result) for every instance a sweep's batches evaluated.

    The sdpi search's speculative windows are all recorded, kept or not.
    """
    check = CHECKS[kind]
    pairs = []

    def run(instances, stop=None):
        results = check.verify(instances)
        pairs.extend(zip(instances, results))
        kept = next((i + 1 for i, r in enumerate(results) if stop and stop(r)), len(results))
        return results[:kept]

    check.draw(substream(seed, check.stream), seed, draws, run, **args)
    return pairs


@pytest.mark.parametrize(
    "kind, draws, args",
    [
        ("ratio_ceiling", 120, {"rho": 0.6}),
        ("tilted_contraction", 300, {"rho": 0.7}),
        ("binary_input_contraction", 300, {}),
        ("tensorization", 60, {"rho1": 0.4, "rho2": 0.8}),
    ],
)
def test_batches_match_the_scalar_verifiers_bit_for_bit(kind, draws, args):
    pairs = swept(kind, draws, SEED, **args)
    assert len(pairs) >= draws
    for instance, result in pairs:
        assert fingerprint(result) == fingerprint(SCALAR[kind](instance))
    if kind == "ratio_ceiling":
        # every (rounds, message sizes) group of random_spec(., 3, 3)
        groups = {pair[0]["instance"].message_sizes for pair in pairs}
        assert len(groups) == 2 + 4 + 8


def test_batches_with_degenerate_tables_match_the_scalar_path():
    rng = substream(SEED, "degenerate-batch")
    bsc = FiniteJoint.binary_symmetric(0.6)
    zero_entry = np.array([[1.0, 0.0], [0.3, 0.7]])
    cube = binary_symmetric_product(0.5, 3)
    specs = [
        InteractiveSpec(bsc, (IDENTITY,)),
        InteractiveSpec(bsc, (zero_entry,)),
        InteractiveSpec(bsc, (IDENTITY, np.stack([IDENTITY, IDENTITY]))),
        InteractiveSpec(cube, (majority_channel(3),)),
    ]
    # positive specs of the same shapes share their stacks
    for spec in list(specs):
        specs.append(InteractiveSpec(
            spec.source,
            tuple(rng.dirichlet(np.ones(c.shape[-1]), size=c.shape[:-1])
                  for c in spec.channels),
        ))
    records = [{"instance": spec, "ceiling": 0.3} for spec in specs]
    batch = CHECKS["ratio_ceiling"].verify(records)
    for record, result in zip(records, batch):
        assert fingerprint(result) == fingerprint(SCALAR["ratio_ceiling"](record))

    tilts = [
        {"rho": 0.7, "f": [1.0, 0.0], "g": [0.5, 1.5],
         "channel_u": IDENTITY, "channel_v": zero_entry},
        {"rho": 0.7, "f": [0.4, 1.1], "g": [0.5, 1.5],
         "channel_u": rng.dirichlet(np.ones(2), size=2), "channel_v": None},
        {"rho": -0.2, "f": [0.4, 1.1], "g": [0.0, 1.5],
         "channel_u": zero_entry, "channel_v": rng.dirichlet(np.ones(2), size=2)},
    ]
    inputs = [
        {"p": [1.0, 0.0, 0.0], "q": [0.0, 0.5, 0.5], "channel": IDENTITY},
        {"p": [0.2, 0.3, 0.5], "q": [0.5, 0.5, 0.0], "channel": zero_entry,
         "pa": (0.1, 0.9)},
        {"p": rng.dirichlet(np.ones(3)), "q": rng.dirichlet(np.ones(3)),
         "channel": IDENTITY},
    ]
    for kind, records in (("tilted_contraction", tilts), ("binary_input_contraction", inputs)):
        for record, result in zip(records, CHECKS[kind].verify(records)):
            assert fingerprint(result) == fingerprint(SCALAR[kind](record))


def test_kl_rows_mix_finite_and_infinite_divergences():
    rng = substream(SEED, "kl-rows")
    p = [rng.dirichlet(np.ones(4)), np.array([0.5, 0.5, 0.0, 0.0]),
         np.array([0.25, 0.25, 0.5, 0.0]), rng.dirichlet(np.ones(4))]
    q = [rng.dirichlet(np.ones(4)), np.array([0.5, 0.0, 0.25, 0.25]),
         np.array([0.5, 0.25, 0.25, 0.0]), rng.dirichlet(np.ones(4))]
    rows = _kl_rows(np.stack(p), np.stack(q)).tolist()
    assert rows[1] == math.inf
    assert [value.hex() for value in rows] == [kl(a, b).hex() for a, b in zip(p, q)]
