"""Deterministic random-stream derivation.

Every stochastic step gets its own generator derived from the run seed and a
purpose tag, so results never depend on call order and parallel or serial
execution produce the same draws. Derivation hashes with sha256 because
Python's built-in hash() is salted per process.
"""

from __future__ import annotations

import random


def derive_rng(seed: int, tag: str) -> random.Random:
    import hashlib  # here, not at module load: index, evaluate and report never hash
    digest = hashlib.sha256(f"{seed}/{tag}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest, "big"))
