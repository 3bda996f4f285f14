"""Deterministic, addressable random streams.

Every piece of randomness in the package draws from a named stream so that
runs are reproducible and independent concerns (weight init, dropout,
shuffling, noise) never share state.  Stream identity is ``(seed, *labels)``
where labels may be strings or integers.  String labels are folded in via
SHA-256, not the builtin ``hash``, so streams do not depend on
``PYTHONHASHSEED`` or the platform.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=256)
def _text_entropy(label: str) -> int:
    # the package uses a handful of fixed labels, each hashed once
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _entropy(label: object) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    return _text_entropy(str(label))


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Return the generator for the ``(seed, *labels)`` stream.

    The same arguments always yield a generator in the same state, and
    distinct label tuples yield statistically independent streams.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [int(seed)] + [_entropy(lab) for lab in labels]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
