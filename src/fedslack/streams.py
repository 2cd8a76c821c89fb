"""Deterministic derivation of per-purpose RNG streams from one master seed.

Every source of randomness in a run is drawn from a stream keyed by
(master_seed, purpose, round, client).  The purpose label is mixed in via
CRC32 so adding a new purpose, round, or client never perturbs the streams
of the others.  Every coordinate must be a non-negative integer.

A stream is `Generator(PCG64(SeedSequence(key)))`, the key being the
coordinates with the purpose as its CRC32.  A client draws each purpose's
values for a round from one stream, in order, across its epochs and batches.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(master_seed: int, purpose: str, round_idx: int = 0,
           client_id: int = 0) -> np.random.Generator:
    """An independent Generator for the given coordinates."""
    key = [
        int(master_seed),
        zlib.crc32(purpose.encode("utf-8")),
        int(round_idx),
        int(client_id),
        0,     # a former batch coordinate: keeps the bits of every stream keyed without it
    ]
    if min(key) < 0:
        raise ValueError("stream coordinates must be non-negative integers")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
