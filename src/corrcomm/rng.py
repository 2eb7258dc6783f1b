"""Deterministic random stream derivation.

All randomness in the package flows through counter-based Philox generators
whose seeds are derived from (master seed, operation tag, trial index).
Independent operations and independent trials therefore draw from
non-overlapping streams, and running trials concurrently yields the same
numbers as running them serially.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

__all__ = ["check_seed", "substream"]

_MAX_SEED = 2**64


def check_seed(seed: int) -> int:
    """Validate a master seed as an unsigned 64-bit integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
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


def substream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for (master seed, operation tag, index).

    The stream is that of SeedSequence([master_seed, *_tag_words(tag),
    index]), seeded from the same uint32 words without coercing the list
    on every call.
    """
    master_seed = check_seed(master_seed)
    if index < 0:
        raise ValueError(f"substream index must be nonnegative, got {index}")
    words = [*_prefix_words(master_seed, tag), *_words(int(index))]
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
