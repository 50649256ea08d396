"""First uniform double of ``numpy.random.default_rng((seed, stream, step))``
for a whole grid of keys in one vectorized pass.

``default_rng`` builds a ``SeedSequence`` from the key, which mixes the
key's 32-bit words into a 4-word pool and expands the pool into four
64-bit words; these seed a ``PCG64`` generator, whose first output
(XSL-RR) becomes a double in [0, 1).  Building one ``Generator`` per key
costs ~15 µs of Python-level setup; here every step is a fixed-width
integer operation over all keys at once, reproduced bit for bit from
numpy's ``bit_generator.pyx`` (``SeedSequence``) and ``pcg64.h``.

A key is the seed's 32-bit words (low first; a zero seed is one word),
then the stream, then the step: any non-negative seed, with streams and
steps in [0, 2**32) (one word each).  As in numpy's ``mix_entropy``, the
key's first four words fill the pool (a shorter key's missing words mix
in as zeros), and each later word is mixed into every pool word.
"""

import operator

import numpy as np

_U32, _U64 = np.uint32, np.uint64


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n, as a [n + 1, 1] column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=_U32)[:, None]


# SeedSequence hashes the k-th word it mixes by xoring it with INIT * MULT**k
# and multiplying it by INIT * MULT**(k + 1); the constants never depend on
# the data.  Mixing a key of w >= 4 words (padded to 4) into the 4-word pool
# takes 4 + 4 * 3 + 4 * (w - 4) = 4 * w hashes, drawing the state 8 more
# from the second constant pair.
_HASH_MIX = (0x43B0D7E5, 0x931E8875)
_HASH_STATE = _powers(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)

# PCG64 seeding from (initstate, initseq): inc = 2 * initseq + 1, state = 0,
# step, state += initstate, step; the first output steps once more, so the
# state it reads is (initstate + inc) * M**2 + inc * (M + 1) mod 2**128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _limbs(c: int) -> tuple[int, int, int, int]:
    """A 128-bit constant's low 32 bits, next 32 bits, low 64 and high 64 bits."""
    c %= 1 << 128
    return c & 0xFFFFFFFF, c >> 32 & 0xFFFFFFFF, c & (1 << 64) - 1, c >> 64


# [2, 1] columns: row 0 multiplies initstate + inc, row 1 multiplies inc
_C0, _C1, _C_LO, _C_HI = (
    np.array(limbs, dtype=_U64)[:, None]
    for limbs in zip(_limbs(_PCG_MULT * _PCG_MULT), _limbs(_PCG_MULT + 1))
)

_LOW32 = _U64(0xFFFFFFFF)
_S16, _S32 = _U32(16), _U64(32)


def _hash(words: np.ndarray, consts: np.ndarray, first: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix with hashes first .. first + count - 1, one per
    row of the [count, n] result (``words`` is [count, n] or broadcasts)."""
    out = words ^ consts[first : first + count]
    out *= consts[first + 1 : first + 1 + count]
    out ^= out >> _S16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    out = x * _MIX_L - y * _MIX_R
    return out ^ out >> _S16


def uniforms(seed: int, streams, steps) -> np.ndarray:
    """``[len(streams), len(steps)]`` array whose entry (i, j) equals
    ``np.random.default_rng((seed, streams[i], steps[j])).random()``."""
    seed = operator.index(seed)
    streams = [operator.index(v) for v in streams]
    steps = [operator.index(v) for v in steps]
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    if not all(0 <= v < 1 << 32 for v in streams + steps):
        raise ValueError("streams and steps must lie in [0, 2**32)")
    rows, cols = len(streams), len(steps)
    n = rows * cols

    # the key's words: the seed's, the stream, the step, then zeros up to
    # the 4-word pool
    seed_words = [seed >> b & 0xFFFFFFFF for b in range(0, max(seed.bit_length(), 1), 32)]
    at = len(seed_words)
    key = np.zeros((max(at + 2, 4), rows, cols), dtype=_U32)
    key[:at] = np.array(seed_words, dtype=_U32)[:, None, None]
    key[at] = np.array(streams, dtype=_U32)[:, None]
    key[at + 1] = steps
    key = key.reshape(len(key), n)
    hashes = _powers(*_HASH_MIX, 4 * len(key))
    pool = _hash(key[:4], hashes, 0, 4)
    # each pool word into the other three, then each later key word into
    # all four, one hash per destination word
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], hashes, 4 + 3 * src, 3))
    for i, word in enumerate(key[4:]):
        pool = _mix(pool, _hash(word, hashes, 16 + 4 * i, 4))

    # generate_state(4, uint64): 8 words cycling the pool, read as four
    # little-endian uint64 words (initstate high, low, initseq high, low)
    words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_STATE, 0, 8)
    seeded = np.ascontiguousarray(words.T).view(_U64).T  # [4, n]
    inc_hi = (seeded[2] << _U64(1)) | (seeded[3] >> _U64(63))
    inc_lo = (seeded[3] << _U64(1)) | _U64(1)

    # a = [initstate + inc, inc], each times its constant, mod 2**128
    a_lo = np.empty((2, n), dtype=_U64)
    a_hi = np.empty((2, n), dtype=_U64)
    np.add(seeded[1], inc_lo, out=a_lo[0])
    np.add(seeded[0], inc_hi, out=a_hi[0])
    a_hi[0] += a_lo[0] < inc_lo  # carry
    a_lo[1] = inc_lo
    a_hi[1] = inc_hi
    a0, a1 = a_lo & _LOW32, a_lo >> _S32
    p00, p01, p10 = a0 * _C0, a0 * _C1, a1 * _C0
    mid = (p00 >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    p_lo = (p00 & _LOW32) | (mid << _S32)
    p_hi = a1 * _C1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    p_hi += a_lo * _C_HI + a_hi * _C_LO
    lo = p_lo[0] + p_lo[1]
    hi = p_hi[0] + p_hi[1] + (lo < p_lo[0])

    # XSL-RR output, then next_double: the top 53 bits times 2**-53
    x = hi ^ lo
    rot = hi >> _U64(58)
    out = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return ((out >> _U64(11)) * (1.0 / 9007199254740992.0)).reshape(rows, cols)
