"""Deterministic random stream derivation.

All randomness in the package flows through counter-based Philox generators
whose seeds are derived from (master seed, operation tag): the stream of
(seed, tag) is that of ``Philox(SeedSequence([seed, *tag words, 0]))``,
where the tag words are two 64-bit words of the tag's SHA-256. Independent
operations draw from non-overlapping streams, and one operation's numbers
depend on its coordinates alone, not on what else ran before it.
"""

from __future__ import annotations

import hashlib

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


def substream(master_seed: int, tag: str) -> np.random.Generator:
    """Return the Philox generator for (master seed, operation tag)."""
    # the trailing 0 is part of every stream's entropy: without it every stream moves
    seed = np.random.SeedSequence([check_seed(master_seed), *_tag_words(tag), 0])
    return np.random.Generator(np.random.Philox(seed))
