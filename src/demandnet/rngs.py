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
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _words(value: int) -> list[int]:
    """``value`` as little-endian uint32 entropy words, the way SeedSequence
    splits an integer (zero is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def stream_uniforms(seed: int, *labels: object, count: int, width: int) -> np.ndarray:
    """``(count, width)`` uniforms whose row k is bitwise
    ``stream(seed, *labels, k).random(width)``.

    Only the last entropy word differs between the ``count`` streams, so
    SeedSequence's mixing and ``generate_state(4, uint64)`` run once over
    all k as wrapping uint32 array arithmetic.  PCG64's seeding step
    (``inc = seq << 1 | 1``, ``state = (inc + initstate) * M + inc`` mod
    2**128) runs on Python ints, and one reused generator, loaded with each
    state in turn, fills the rows.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 <= count <= _MASK32:
        raise ValueError(f"count must be in [0, 2**32), got {count}")
    prefix = [w for v in [int(seed)] + [_entropy(lab) for lab in labels] for w in _words(v)]
    entropy = [np.full(count, w, dtype=np.uint32) for w in prefix]
    entropy.append(np.arange(count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    # generate_state's uint64 words s0..s3: PCG64 seeds from s0 << 64 | s1
    # and takes its sequence from s2 << 64 | s3
    s0, s1, s2, s3 = ((words[j] | words[j + 1] << 32).tolist() for j in range(0, 8, 2))

    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    out = np.empty((count, width))
    for row, hi, lo, seq_hi, seq_lo in zip(out, s0, s1, s2, s3):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.random(out=row)
    return out
