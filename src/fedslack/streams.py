"""Deterministic derivation of per-purpose RNG streams from one master seed.

Every source of randomness in a run is drawn from a stream keyed by
(master_seed, purpose, round, client, batch).  The purpose label is mixed
in via CRC32 so adding a new purpose, round, or client never perturbs the
streams of the others.  Every coordinate must be a non-negative integer.

A stream is `Generator(PCG64(SeedSequence(key)))`, the key being the five
coordinates with the purpose as its CRC32.  A scalar call builds exactly
that.  When `purpose`, `client_id` or `batch_idx` is an array, the
coordinates broadcast and one call returns a list of Generators, one per
key in C order: it runs numpy's SeedSequence hash (pool of 4 words,
`generate_state(4, uint64)`) on all the keys at once and seeds each PCG64
from its precomputed words, so the K streams of a round cost one pass of
array arithmetic instead of K SeedSequence objects.  Both forms give the
same streams bit for bit.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash.  Every hashmix step XORs the word with the
# running constant, multiplies the constant by MULT_A and the word by the
# result.  The constants never depend on the data, so they are folded into
# one column of powers: the k-th step XORs with INIT*MULT**k and multiplies
# by INIT*MULT**(k+1), mod 2**32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4
_MASK32 = 0xFFFFFFFF


@functools.cache
def _powers(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n, as an (n, 1) uint32 column."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(n)],
                    dtype=np.uint32)[:, None]


_HASH_B = _powers(_INIT_B, _MULT_B, 2 * _POOL + 1)     # generate_state: 8 words


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hashmix step per row: `words` (r, K) or (1, K), `consts` (r + 1, 1)."""
    h = words ^ consts[:-1]
    h *= consts[1:]
    h ^= h >> _XSHIFT
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L
    r -= y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


def _words(x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """SeedSequence's little-endian 32-bit words of each non-negative integer
    in `x`, word by word, and each entry's word count (0 has one word)."""
    words = [(x & _MASK32).astype(np.uint32)]
    count = np.ones(x.shape, dtype=np.intp)
    rest = x >> 32
    while (more := rest > 0).any():
        words.append((rest & _MASK32).astype(np.uint32))
        count += more
        rest = rest >> 32
    return words, count


class _SeedState(ISeedSequence):
    """The words `SeedSequence(key).generate_state(4, uint64)` returns, precomputed."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.state) or dtype is not np.uint64:
            raise ValueError("a precomputed seed state holds 4 uint64 words")
        return self.state


_NEGATIVE = "stream coordinates must be non-negative integers"


def _batched(master_seed, purpose, round_idx, client_id, batch_idx) -> list[np.random.Generator]:
    purposes = np.asarray(purpose)
    labels, inverse = np.unique(purposes, return_inverse=True)
    crcs = np.array([zlib.crc32(str(p).encode("utf-8")) for p in labels.ravel()],
                    dtype=np.int64)[inverse.reshape(purposes.shape)]
    key = np.broadcast_arrays(*(np.asarray(c) if np.ndim(c) else np.asarray(int(c))
                                for c in (master_seed, crcs, round_idx, client_id, batch_idx)))
    if key[0].size == 0:
        return []
    if any((c < 0).any() for c in key):
        raise ValueError(_NEGATIVE)

    # The assembled entropy of every key, (L, K): its coordinates' words in
    # turn, so a key with a coordinate >= 2**32 is longer than the others.
    parts = [_words(c.ravel()) for c in key]
    lengths = sum(count for _, count in parts)
    n_keys, n_words = lengths.size, int(lengths.max())
    entropy = np.zeros((n_words, n_keys), dtype=np.uint32)
    offset = np.zeros(n_keys, dtype=np.intp)
    cols = np.arange(n_keys)
    for words, count in parts:
        for w, word in enumerate(words):
            has = count > w
            entropy[offset[has] + w, cols[has]] = word[has]
        offset += count

    # SeedSequence.mix_entropy: every key has at least 5 words, so the pool
    # takes the first 4, then each pool word mixes in the others, then every
    # further word is mixed into each pool word.
    hash_a = _powers(_INIT_A, _MULT_A, _POOL * n_words + 1)
    pool = _hashmix(entropy[:_POOL], hash_a[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src:src + 1], hash_a[k:k + _POOL]))
        k += _POOL - 1
    for w in range(_POOL, n_words):
        mixed = _mix(pool, _hashmix(entropy[w:w + 1], hash_a[k:k + _POOL + 1]))
        pool = np.where(lengths > w, mixed, pool)
        k += _POOL

    # generate_state(4, uint64): 8 words from the pool in cycle, paired
    # little-endian into 4 uint64 words per key.
    state = _hashmix(np.tile(pool, (2, 1)), _HASH_B).astype(np.uint64)
    seeds = np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)
    return [np.random.Generator(np.random.PCG64(_SeedState(s))) for s in seeds]


def stream(master_seed: int, purpose: str | np.ndarray, round_idx: int = 0,
           client_id: int | np.ndarray = 0, batch_idx: int | np.ndarray = 0
           ) -> np.random.Generator | list[np.random.Generator]:
    """An independent Generator for the given coordinates, or, when `purpose`,
    `client_id` or `batch_idx` is an array, a list of them, one per key of
    the broadcast coordinates in C order."""
    if not (isinstance(purpose, str) and np.ndim(client_id) == 0 and np.ndim(batch_idx) == 0):
        return _batched(master_seed, purpose, round_idx, client_id, batch_idx)
    key = [
        int(master_seed),
        zlib.crc32(purpose.encode("utf-8")),
        int(round_idx),
        int(client_id),
        int(batch_idx),
    ]
    if min(key) < 0:
        raise ValueError(_NEGATIVE)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
