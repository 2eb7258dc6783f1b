"""Deterministic random stream derivation.

All randomness in the package flows through counter-based Philox generators
whose seeds are derived from (master seed, operation tag, trial index).
Independent operations and independent trials therefore draw from
non-overlapping streams, and running trials concurrently yields the same
numbers as running them serially.

The stream of (seed, tag, index) is that of
``Philox(SeedSequence([seed, *tag words, index]))``, where the tag words
are two 64-bit words of the tag's SHA-256. Philox reads nothing from its
SeedSequence but the two 64-bit key words of ``generate_state(2, uint64)``,
a pure function of the entropy's uint32 words. So a trial stream (index
>= 1) takes its key from a table: one numpy pass of SeedSequence's own
uint32 hashing computes the keys of an aligned block of ``_BLOCK``
indices, whose (seed, tag) words and high index words are shared and whose
low index word is the one column that varies, and the generator is seeded
from a stand-in seed sequence that returns the key's row. Index 0, the one
stream of every sweep, search and fast risk cell, is seeded by SeedSequence
itself and builds no table.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["check_seed", "substream"]

_MAX_SEED = 2**64

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK = 0xFFFFFFFF

# Indices per key table. A power of two below 2**32, so a block never
# crosses a change in the index's high words.
_BLOCK = 1024


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
    return int(value)


def check_seed(seed: int) -> int:
    """Validate a master seed as an unsigned 64-bit integer."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _tag_words(tag: str) -> list[int]:
    # Stable across platforms and runs: hash the tag, keep two 64-bit words.
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return [
        int.from_bytes(digest[0:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    ]


def _words(value: int) -> list[int]:
    """value's 32-bit words, least significant first, one word for 0.

    These are the words SeedSequence's own coercion gives one integer of
    its entropy list.
    """
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


@lru_cache(maxsize=256)
def _prefix_words(master_seed: int, tag: str) -> tuple[int, ...]:
    return tuple(w for value in (master_seed, *_tag_words(tag)) for w in _words(value))


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, whose constant steps by mult at every call."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK
        value = (value * const) & _MASK
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two pool words."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
    return result ^ (result >> 16)


def _philox_keys(entropy: list) -> np.ndarray:
    """SeedSequence(entropy).generate_state(2, uint64) for a column of entropies.

    Each entropy word is a Python int or a uint64 array of 32-bit words,
    one per row; the result has one (2,) key row per row. Products of two
    32-bit words fit in 64 bits, so masking after each step gives
    SeedSequence's uint32 arithmetic on ints and arrays alike.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    # the seed's, the two tag words' and the index's words make at least
    # _POOL_SIZE words, so none of the pool is padding
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: 4 uint32 words, read as 2 little-endian uint64
    out = _hasher(_INIT_B, _MULT_B)
    state = [out(word) for word in pool]
    return np.column_stack([state[0] | (state[1] << 32), state[2] | (state[3] << 32)])


# A trial loop walks one (seed, tag)'s indices in order and needs one
# block at a time; four blocks of 16 KiB leave room for interleaved loops.
@lru_cache(maxsize=4)
def _key_table(master_seed: int, tag: str, block: int) -> np.ndarray:
    """Philox keys of indices block * _BLOCK onward, one read-only row each."""
    first = block * _BLOCK
    low = np.arange(first & _MASK, (first & _MASK) + _BLOCK, dtype=np.uint64)
    keys = _philox_keys([*_prefix_words(master_seed, tag), low, *_words(first)[1:]])
    keys.flags.writeable = False
    return keys


class _PhiloxKey(ISeedSequence):
    """A seed sequence that holds only the key Philox asks it for.

    It cannot spawn, so neither can a trial stream's generator.
    """

    __slots__ = ("_key",)

    def __init__(self, key: np.ndarray):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 2 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self._key
        raise ValueError("this seed sequence holds only Philox's key, "
                         "generate_state(2, np.uint64)")


def substream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for (master seed, operation tag, index).

    The stream is that of SeedSequence([master_seed, *_tag_words(tag),
    index]); index must be a nonnegative integer.
    """
    master_seed = check_seed(master_seed)
    index = _integer(index, "substream index")
    if index < 0:
        raise ValueError(f"substream index must be nonnegative, got {index}")
    if index == 0:
        entropy = np.array([*_prefix_words(master_seed, tag), 0], dtype=np.uint32)
        seed = np.random.SeedSequence(entropy)
    else:
        block, row = divmod(index, _BLOCK)
        seed = _PhiloxKey(_key_table(master_seed, tag, block)[row])
    return np.random.Generator(np.random.Philox(seed))
