"""Deterministic pseudo-random numbers with pinned, documented constants.

Reproducibility across platforms and processes is a hard requirement for the
benchmark harness: the same seed must yield bit-identical splits, weights, and
bootstrap draws everywhere. Python's random module and numpy's Generator do
not promise cross-version stability, so the two generators used throughout the
package are spelled out here in full.

splitmix64 (Steele/Lea/Flood mixer), used for seeding and stable hashing:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output = z XOR (z >> 31)

xoshiro256** (Blackman/Vigna), the workhorse stream. State s[0..3] is seeded
with four consecutive splitmix64 outputs. One step:

    result = rotl(s[1] * 5, 7) * 9            mod 2^64
    t = s[1] << 17                            mod 2^64
    s[2] ^= s[0]; s[3] ^= s[1]; s[1] ^= s[2]; s[0] ^= s[3]
    s[2] ^= t; s[3] = rotl(s[3], 45)

All arithmetic is modulo 2^64. Floats take the top 53 bits of a step, giving
uniforms in [0, 1). Gaussians use Box-Muller on two uniforms. Shuffles are
Fisher-Yates with indices drawn by modulo reduction (the bias is far below
anything observable at the sizes used here, and the draws stay pinned).

Bulk draws (next_u64_array, gauss_vector) give the same stream as the same
number of scalar calls, bit for bit, and leave the state and the Gaussian
cache where those calls would. The step is linear over GF(2): the 256-bit
state after k steps is T^k times the state, for a fixed 256x256 bit matrix T
(Blackman & Vigna, "Scrambled linear pseudorandom number generators", ACM
TOMS 2021). n draws are cut into K lanes of L steps each, L a power of two
near sqrt(n) and K = ceil(n / L); lane k starts at T^(kL) times the state,
found by doubling with the matrices T^(2^p), each applied by XOR table
lookups on the packed bits (exact, with no float arithmetic). All lanes then step
together as uint64 arrays, and lane k's L outputs are draws kL .. kL + L - 1.
The matrices are built on first use by squaring and cached as packed bits,
8 KB each. Below BULK_MIN_DRAWS draws next_u64_array runs the faster scalar
loop; gauss_vector takes every draw from it. Box-Muller keeps Python's
math.log, math.sin and math.cos on every element, because numpy's vectorised
transcendentals are not promised to round as libm does.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# FNV-1a 64-bit constants, used for hashing strings into seed material.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; return (new_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(master: int, *parts: str | int) -> int:
    """Stable 64-bit seed derived from a master seed and a label path.

    Each part is absorbed through one splitmix64 step after being hashed
    (strings via FNV-1a on UTF-8 bytes; ints taken modulo 2^64), so
    derive_seed(s, "a", "b") differs from derive_seed(s, "ab") and the result
    depends only on the values passed, never on platform or process state.
    """
    _, h = splitmix64_next(master & _MASK64)
    for part in parts:
        if isinstance(part, str):
            token = _fnv1a64(part.encode("utf-8"))
        else:
            token = part & _MASK64
        _, h = splitmix64_next(h ^ token)
    return h


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# Fewer draws than this take the scalar loop. Best of 5 on a 2-vCPU Xeon,
# jump matrices cached: 64 uint64 draws took 0.18 ms in lanes against 0.05 ms
# in the loop, 256 took 0.28 against 0.19 ms, 512 took 0.33 against 0.37 ms
# (512 Gaussians 0.41 against 0.54 ms), 1024 took 0.40 against 0.71 ms.
BULK_MIN_DRAWS = 512

_U5, _U7, _U9, _U11, _U17, _U19, _U45, _U57 = (
    np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 45, 57))


def _step_lanes(s: list[np.ndarray], out: np.ndarray | None = None) -> None:
    """One xoshiro256** step of every lane: s holds the four state words as
    uint64 arrays, one entry per lane, updated in place; out takes the outputs."""
    s0, s1, s2, s3 = s
    if out is not None:
        x = s1 * _U5
        np.bitwise_or(x << _U7, x >> _U57, out=x)
        np.multiply(x, _U9, out=out)
    t = s1 << _U17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.bitwise_or(s3 << _U45, s3 >> _U19, out=s3)


_NIBBLE_ROWS = np.arange(0, 64 * 16, 16)  # the first table row of each state nibble


def _apply_jump(cols: np.ndarray, states: np.ndarray) -> np.ndarray:
    """M times each state over GF(2), for the 256x256 bit matrix M whose
    column j is cols[j]: states, cols and the result hold one state per row as
    four uint64 words, bit j of a state being bit j % 64 of word j // 64.
    Four Russians: for each of the 64 nibbles q of a state, a table of the
    XOR of the columns 4q .. 4q + 3 that each nibble value selects, then one
    lookup per nibble. No float arithmetic, so the product is exact."""
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    by_nibble = cols.reshape(64, 4, 1, 4)
    for i in range(4):  # entries with bit i set: those without, XOR column 4q + i
        np.bitwise_xor(table[:, :1 << i], by_nibble[:, i], out=table[:, 1 << i:2 << i])
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    nibbles = np.stack([octets & 15, octets >> 4], axis=2).reshape(len(octets), 64)
    return np.bitwise_xor.reduce(table.reshape(-1, 4)[nibbles + _NIBBLE_ROWS], axis=1)


@functools.lru_cache(maxsize=64)
def _jump(p: int) -> np.ndarray:
    """T^(2^p) as its 256 columns (256 x 4 uint64, 8 KB): column j is 2^p steps
    of the state that has only bit j set."""
    if p == 0:
        j = np.arange(256)
        basis = np.zeros((4, 256), dtype=np.uint64)
        basis[j // 64, j] = np.left_shift(np.uint64(1), (j % 64).astype(np.uint64))
        _step_lanes(list(basis))
        cols = basis.T.copy()
    else:
        half = _jump(p - 1)
        cols = _apply_jump(half, half)
    cols.flags.writeable = False
    return cols


def _lane_starts(state: list[int], lane_len: int, lanes: int) -> list[np.ndarray]:
    """The four state words of lanes 0 .. lanes - 1, lane k at T^(k * lane_len)
    times state: each doubling jumps the lanes found so far by T^(have * lane_len)."""
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = np.array(state, dtype=np.uint64)
    have, p = 1, lane_len.bit_length() - 1
    while have < lanes:
        take = min(have, lanes - have)
        starts[have:have + take] = _apply_jump(_jump(p), starts[:take])
        have, p = have + take, p + 1
    return [np.ascontiguousarray(w) for w in starts.T]


class Xoshiro256StarStar:
    """xoshiro256** stream seeded through splitmix64.

    The all-zero state cannot occur: splitmix64 outputs for any seed are never
    all zero across four consecutive draws.
    """

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            s.append(out)
        self._s = s
        self._gauss_cache: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def next_u64_array(self, n: int) -> np.ndarray:
        """The next n next_u64() outputs as a uint64 array, in stream order."""
        if n < BULK_MIN_DRAWS:
            return np.array([self.next_u64() for _ in range(n)], dtype=np.uint64)
        lane_len = 1 << round(math.log2(n) / 2)
        lanes = -(-n // lane_len)
        s = _lane_starts(self._s, lane_len, lanes)
        out = np.empty((lane_len, lanes), dtype=np.uint64)
        last = n - (lanes - 1) * lane_len  # steps the last lane must take
        for i in range(lane_len):
            _step_lanes(s, out[i])
            if i + 1 == last:
                self._s = [int(w[-1]) for w in s]
        return out.T.reshape(-1)[:n]

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        """Integer in [0, n) by modulo reduction."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle (descending index sweep)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n) via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError("sample_indices requires 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def gauss(self) -> float:
        """Standard normal via Box-Muller; caches the paired draw."""
        if self._gauss_cache is not None:
            value = self._gauss_cache
            self._gauss_cache = None
            return value
        u1 = self.random()
        while u1 == 0.0:
            u1 = self.random()
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._gauss_cache = radius * math.sin(theta)
        return radius * math.cos(theta)

    def gauss_vector(self, n: int) -> np.ndarray:
        """The next n gauss() values as a float array."""
        out = np.empty(n)
        head = 0
        if n and self._gauss_cache is not None:
            out[0], self._gauss_cache, head = self._gauss_cache, None, 1
        pairs = (n - head + 1) // 2
        state = list(self._s)
        u = (self.next_u64_array(2 * pairs) >> _U11).astype(np.float64) * (2.0 ** -53)
        u1, u2 = u[0::2], u[1::2]
        if u1.all():  # else gauss() redraws a u1 of 0: take the scalar loop
            logs = np.fromiter(map(math.log, u1.tolist()), np.float64, pairs)
            radius = np.sqrt(-2.0 * logs)
            theta = ((2.0 * math.pi) * u2).tolist()
            z = np.empty((pairs, 2))
            z[:, 0] = radius * np.fromiter(map(math.cos, theta), np.float64, pairs)
            z[:, 1] = radius * np.fromiter(map(math.sin, theta), np.float64, pairs)
            z = z.reshape(-1)
            out[head:] = z[:n - head]
            if (n - head) % 2:
                self._gauss_cache = float(z[-1])
            return out
        self._s = state
        out[head:] = [self.gauss() for _ in range(n - head)]
        return out
