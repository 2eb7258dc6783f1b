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


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_substream_is_the_seed_sequence_of_its_coordinates(seed):
    # substream seeds from precomputed uint32 words; they must be the words
    # SeedSequence derives from the list [seed, *tag words, index] itself
    for index in (0, 1, 2**32 - 1, 2**32, 2**70):
        entropy = [seed, *_tag_words("demo"), index]
        reference = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        np.testing.assert_array_equal(
            substream(seed, "demo", index).integers(0, 2**63, 8),
            reference.integers(0, 2**63, 8),
        )
