import numpy as np
import pytest

from corrcomm import check_seed, substream
from corrcomm.rng import _tag_words


def test_same_coordinates_same_stream():
    a = substream(7, "demo", 3).random(16)
    b = substream(7, "demo", 3).random(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_tags_and_indices_diverge():
    base = substream(7, "demo", 0).random(16)
    assert not np.array_equal(base, substream(7, "demo", 1).random(16))
    assert not np.array_equal(base, substream(7, "other", 0).random(16))
    assert not np.array_equal(base, substream(8, "demo", 0).random(16))


def test_check_seed_accepts_u64_range():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    assert check_seed(np.uint64(13)) == 13


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", None, True])
def test_check_seed_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        check_seed(bad)


def test_substream_rejects_negative_index():
    with pytest.raises(ValueError):
        substream(0, "demo", -1)


RANDOM_SEEDS = [int(s) for s in np.random.default_rng(20191).integers(0, 2**63, 3)]
TAGS = ["demo", "gen_pairs/binary", "gen_pairs/gaussian", "risk/naive/k=8/rho=0.5", ""]
# 2**32 - 1/2**32 where the index gains a word; 2**70 with three words
INDICES = [0, 1, 2, 1023, 1024, 1025, 2047, 2048, 2**32 - 1, 2**32, 2**70]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, *RANDOM_SEEDS])
def test_substream_is_the_seed_sequence_of_its_coordinates(seed):
    # the stream SeedSequence derives from the list [seed, *tag words, index]
    for tag in TAGS:
        for index in INDICES:
            entropy = [seed, *_tag_words(tag), index]
            reference = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
            np.testing.assert_array_equal(
                substream(seed, tag, index).integers(0, 2**63, 8),
                reference.integers(0, 2**63, 8),
            )


def test_generators_of_one_coordinate_are_independent():
    a, b = substream(5, "demo", 7), substream(5, "demo", 8)
    again = substream(5, "demo", 7)
    assert a.bit_generator is not again.bit_generator
    first = a.random(32)
    assert np.array_equal(again.random(32), first)  # a's draws left it where it was
    assert not np.array_equal(b.random(32), first)
    assert np.array_equal(substream(5, "demo", 7).random(32), first)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1", None, np.float64(2.0)])
def test_substream_rejects_a_non_integer_index(bad):
    with pytest.raises(ValueError, match="substream index must be an integer"):
        substream(0, "demo", bad)


def test_substream_accepts_numpy_integer_indices():
    want = substream(0, "demo", 3).random(4)
    for index in (np.int64(3), np.uint32(3), np.uint64(3)):
        assert np.array_equal(substream(0, "demo", index).random(4), want)
