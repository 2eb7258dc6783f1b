"""Deterministic random stream derivation.

All randomness in the package flows through counter-based Philox generators
whose seeds are derived from (master seed, operation tag, index): the
stream of (seed, tag, index) is that of
``Philox(SeedSequence([seed, *tag words, index]))``, where the tag words
are two 64-bit words of the tag's SHA-256. Independent operations draw
from non-overlapping streams, and one operation's numbers depend on its
coordinates alone, not on what else ran before it.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["check_seed", "substream"]

_MAX_SEED = 2**64


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


def substream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for (master seed, operation tag, index).

    The stream is that of SeedSequence([master_seed, *_tag_words(tag),
    index]); index must be a nonnegative integer.
    """
    master_seed = check_seed(master_seed)
    index = _integer(index, "substream index")
    if index < 0:
        raise ValueError(f"substream index must be nonnegative, got {index}")
    seed = np.random.SeedSequence([master_seed, *_tag_words(tag), index])
    return np.random.Generator(np.random.Philox(seed))
