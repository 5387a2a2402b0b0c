"""Campaign seeding, a block of samples at a time: a vectorised port of the
two ``SeedSequence`` levels of ``harness.derive_seeds``, whose words reach
numpy's own PCG64 through an ``ISeedSequence`` stand-in, so that every
generator starts as ``np.random.default_rng`` of the int child would."""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# samples seeded per pass; a power of two, so no block straddles 2^32
BLOCK = 1024


def _words(n: int) -> list:
    """The uint32 words SeedSequence reads a nonnegative int as, lowest first."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _seed_sequence(entropy: list, n_words: int) -> list:
    """``SeedSequence(e).generate_state(n_words, np.uint64)`` for every
    entropy e at once: ``entropy`` holds e's uint32 words, lowest first, as
    uint64 arrays with one entry per e; so does the result."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = (h * _MULT_A) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (x * _MIX_L - y * _MIX_R) & _M32
        return value ^ (value >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    out = []
    for i in range(2 * n_words):
        value = pool[i % 4] ^ h
        h = (h * _MULT_B) & _M32
        value = (value * h) & _M32
        out.append(value ^ (value >> 16))
    return [out[2 * k] | (out[2 * k + 1] << 32) for k in range(n_words)]


def block_states(seed: int, start: int, stop: int) -> np.ndarray:
    """For the samples start <= i < stop of one block, the words
    ``SeedSequence(derive_seeds(seed, i)[k]).generate_state(4, np.uint64)``,
    which numpy's PCG64 seeds ``default_rng(derive_seeds(seed, i)[k])`` from:
    a read-only array of shape (stop - start, 4, 4) indexed [i - start, k].
    A child seed below 2^32 is one SeedSequence word, which mixes as the
    pair (c, 0) does, so every child goes through as two words."""
    n = stop - start
    index = np.arange(start, stop, dtype=np.uint64)
    entropy = [np.full(n, w, dtype=np.uint64) for w in _words(seed)]
    entropy += [(index >> np.uint64(32 * j)) & _M32 for j in range(len(_words(start)))]
    children = np.concatenate(_seed_sequence(entropy, 4))  # child k of i at k n + i - start
    words = np.stack(_seed_sequence([children & _M32, children >> 32], 4)).reshape(4, 4, n)
    words = np.ascontiguousarray(words.transpose(2, 1, 0))
    words.flags.writeable = False
    return words


class ChildSeed(ISeedSequence):
    """Stands in for a child seed c of ``derive_seeds``: it hands PCG64 the
    words it would get from ``SeedSequence(c)``, computed by ``block_states``.
    It answers only the request PCG64 makes, ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a child seed holds only the 4 uint64 words PCG64 seeds from")
        return self._words


class SampleSeeds:
    """The four child seeds of one sample, standing in for
    ``derive_seeds(seed, i)``: row i of ``block_states`` makes a ``ChildSeed``
    only for the streams a runner reads."""

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray) -> None:
        self._row = row

    def __getitem__(self, k: int) -> ChildSeed:
        return ChildSeed(self._row[k])
