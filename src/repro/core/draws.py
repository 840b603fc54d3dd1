"""Counter-based Monte-Carlo draws: one pure function of ``(seed, token, oid, j)``.

Every Monte-Carlo draw in the engines is the uniform

    u(seed, token, oid, j) = finalise(row_key(seed, token, oid) + (j + 1)·γ) / 2⁶⁴

where ``finalise`` is the SplitMix64 output finaliser (a bijection of 64-bit
words with full avalanche), ``γ`` is the golden-ratio increment and the row
key absorbs the engine seed, the query's draw token (a digest of its
content, :func:`repro.core.plan.query_draw_token`) and the oid — the oid
reinterpreted as ``uint64``, so any sign works — through the same
finaliser.  The top 53 bits map the word to ``[0, 1)``.

There is no generator state: a draw depends on nothing but its four
coordinates, so any execution path (scalar, vectorized, sharded, shard
daemon, served, cached, continuous) that asks for the same coordinates gets
the same bits, whatever batch, shard or process it runs in.

Column layout (part of the contract every path shares): a sampled IPQ with
``n`` samples reads the issuer's x draws from columns ``[0, n)`` and its y
draws from ``[n, 2n)``; a sampled IUQ reads the target's draws from
``[2n, 3n)`` and ``[3n, 4n)``.  Nearest-neighbour draws come from a
per-query stream in a separate domain (:func:`query_stream_key`), which no
``(seed, token, oid)`` row key is derived from.

Kernels evaluate the function over ``(candidates, columns)`` blocks of at
most :data:`CHUNK_ROWS` rows (:func:`uniform_blocks`), so no whole-batch
tensor is ever materialised.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Rows (candidates) per uniform block the sampled kernels evaluate at once.
#: At 200 samples a block's two word buffers hold 100 KiB each, under
#: glibc's 128 KiB mmap threshold, so blocks reuse free heap memory instead
#: of faulting in fresh pages: in a shard daemon, 64 rows raised the peak
#: RSS by ~0.4 MiB more than 32, 16 or 8 rows did.  On a 2-core x86-64 VM,
#: 401 candidates took 1.2 ms at 32 rows against 1.1 ms at 64 and 1.5 ms
#: at 16.
CHUNK_ROWS = 32

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
#: Domain tags absorbed first into a stream key (range rows vs NN queries).
_RANGE_DOMAIN = 0x52414E4745  # "RANGE"
_NEAREST_DOMAIN = 0x4E4E  # "NN"

_GAMMA_U = np.uint64(_GAMMA)
_M1_U = np.uint64(_M1)
_M2_U = np.uint64(_M2)
_TO_UNIT = 2.0**-53


def _finalise_int(z: int) -> int:
    """SplitMix64's output finaliser on one Python int (mod 2⁶⁴)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _finalise(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64's output finaliser, in place on a ``uint64`` array."""
    np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= _M1_U
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= _M2_U
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


def _absorb(domain: int, *words: int) -> int:
    key = _finalise_int(domain)
    for word in words:
        key = _finalise_int(key ^ (int(word) & _MASK))
    return key


def row_keys(rng_seed: int, token: int, oids) -> np.ndarray:
    """The ``uint64`` stream key of each ``oid`` for one ``(seed, token)``."""
    base = np.uint64(_absorb(_RANGE_DOMAIN, rng_seed, token))
    keys = np.asarray(oids, dtype=np.int64).reshape(-1).view(np.uint64) ^ base
    _finalise(keys, np.empty_like(keys))
    return keys


def query_stream_key(rng_seed: int, token: int) -> np.ndarray:
    """The one-row stream key of a query's own (nearest-neighbour) draws."""
    return np.array([_absorb(_NEAREST_DOMAIN, rng_seed, token)], dtype=np.uint64)


def uniform_blocks(
    keys: np.ndarray, columns: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, u)`` blocks of the draws of ``keys`` over ``[0, columns)``.

    ``u`` is a ``(len(rows), columns)`` float view into a buffer reused
    across blocks, so consume it before advancing the iterator.  Blocks
    hold at most :data:`CHUNK_ROWS` rows.
    """
    offsets = np.arange(1, columns + 1, dtype=np.uint64) * _GAMMA_U
    height = min(CHUNK_ROWS, len(keys))
    words = np.empty((height, columns), dtype=np.uint64)
    scratch = np.empty_like(words)
    # The finished floats reuse the scratch words' memory: two buffers in all.
    unit = scratch.view(np.float64)
    for start in range(0, len(keys), CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, len(keys))
        m = stop - start
        z, u = words[:m], unit[:m]
        np.add(keys[start:stop, None], offsets[None, :], out=z)
        _finalise(z, scratch[:m])
        z >>= np.uint64(11)
        np.multiply(z, _TO_UNIT, out=u)
        yield slice(start, stop), u


def uniforms(keys: np.ndarray, columns: int) -> np.ndarray:
    """All draws of ``keys`` over ``[0, columns)`` as one ``(K, columns)`` array.

    For tests and small one-row streams; kernels iterate
    :func:`uniform_blocks` instead.
    """
    out = np.empty((len(keys), columns), dtype=float)
    for rows, block in uniform_blocks(keys, columns):
        out[rows] = block
    return out


def counter_uniform(rng_seed: int, token: int, oid: int, j: int) -> float:
    """``u(seed, token, oid, j)`` for one draw (the scalar reference)."""
    key = int(row_keys(rng_seed, token, [oid])[0])
    word = _finalise_int(key + (int(j) + 1) * _GAMMA)
    return (word >> 11) * _TO_UNIT
