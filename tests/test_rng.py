import numpy as np
import pytest

from corrcomm import check_seed, substream
from corrcomm.rng import _tag_words


def test_same_coordinates_same_stream():
    a = substream(7, "demo").random(16)
    b = substream(7, "demo").random(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_tags_and_seeds_diverge():
    base = substream(7, "demo").random(16)
    assert not np.array_equal(base, substream(7, "other").random(16))
    assert not np.array_equal(base, substream(8, "demo").random(16))
    assert not np.array_equal(base, substream(2**64 - 7, "demo").random(16))


def test_check_seed_accepts_u64_range():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    assert check_seed(np.uint64(13)) == 13


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", None, True])
def test_check_seed_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        check_seed(bad)


RANDOM_SEEDS = [int(s) for s in np.random.default_rng(20191).integers(0, 2**63, 3)]
TAGS = ["demo", "gen_pairs/binary", "gen_pairs/gaussian", "risk/naive/k=8/rho=0.5", ""]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, *RANDOM_SEEDS])
def test_substream_is_the_seed_sequence_of_its_coordinates(seed):
    # the stream SeedSequence derives from the list [seed, *tag words, 0]
    for tag in TAGS:
        entropy = [seed, *_tag_words(tag), 0]
        reference = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        np.testing.assert_array_equal(
            substream(seed, tag).integers(0, 2**63, 8),
            reference.integers(0, 2**63, 8),
        )


def test_generators_of_one_coordinate_are_independent():
    a, b = substream(5, "demo"), substream(5, "other")
    again = substream(5, "demo")
    assert a.bit_generator is not again.bit_generator
    first = a.random(32)
    assert np.array_equal(again.random(32), first)  # a's draws left it where it was
    assert not np.array_equal(b.random(32), first)
    assert np.array_equal(substream(5, "demo").random(32), first)
