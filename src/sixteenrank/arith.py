"""Integer arithmetic for primes split in Z[i].

Primality testing, square roots of -1 mod p, two-square decompositions,
x^2 + 32 y^2 representations, and the shared prime tables that the
heavier modules build on.  Everything here is exact integer arithmetic;
numpy only appears in the bulk sieve helpers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Refusal

# The primes up to 37, and their product for one-step trial division.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_MR_LIMIT = 1 << 64
# Rows (limit, bases), sorted by limit: the bases decide every n < limit.
# The one- and two-base rows are J. Sinclair's records
# (miller-rabin.appspot.com), the three- and four-base rows Jaeschke's
# (Math. Comp. 61, 1993), and the twelve primes up to 37 decide every
# n < 2^64 (OEIS A014233).  Jaeschke's one-digit bases take over from
# 1,050,535,501: past 2^30 a base reduced mod n takes two 30-bit digits,
# and a modular power by it costs more than one by 2, 7 or 61.  No command
# tests an n above 10^10, so all twelve bases serve every n from
# 1,122,004,669,633 up.
# A base is reduced mod n and skipped when it is 0 mod n: such an n is
# then a prime divisor of the base, or a composite one that the row's
# other bases reject.
_MR_ROWS = (
    (341531, (9345883071009581737,)),
    (1050535501, (336781006125, 9639812373923155)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (_MR_LIMIT, _SMALL_PRIMES),
)
_MR_LIMITS = tuple(limit for limit, _ in _MR_ROWS)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < 2^64, with the fewest bases
    that decide n's size: one modular power below 341,531 and two below
    1,050,535,501 (Sinclair's record bases), then Jaeschke's (1993)
    {2, 7, 61} below 4,759,123,141 and {2, 13, 23, 1662803} below
    1,122,004,669,633, so at most four modular powers up to 10^12, and
    the twelve primes up to 37 above."""
    if n >= _MR_LIMIT:
        raise Refusal(f"is_prime is deterministic only below 2**64, got {n}")
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    # n - 1 = d 2^r with d odd
    m = n - 1
    r = _v2(m)
    d = m >> r
    for base in _MR_ROWS[bisect_right(_MR_LIMITS, n)][1]:
        base %= n
        if not base:
            continue
        x = pow(base, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod mod, for 0 <= base and mod below 2^31."""
    out = np.ones_like(mod)
    for k in range(int(exp.max(initial=0)).bit_length()):
        out = np.where((exp >> k) & 1, out * base % mod, out)
        base = base * base % mod
    return out


# entries per block of the arrays _runs yields
_BLOCK = 1 << 12


def _runs(start: np.ndarray, step: np.ndarray, count: np.ndarray):
    """The progressions start[i] + k step[i], 0 <= k < count[i], in order,
    as pairs (i, value) of arrays of at most _BLOCK entries each, so that
    memory stays bounded however long the runs are."""
    ends = count.cumsum()
    total = int(ends[-1]) if ends.size else 0
    # the k-th entry of all runs together, k in run i, is base[i] + k step[i]
    base = start - step * (ends - count)
    if 0 < total <= _BLOCK:
        # one block holds every run whole, with no search for its edges
        i = np.arange(count.size).repeat(count)
        yield i, _entries(i, 0, total, base, step)
        return
    for e0 in range(0, total, _BLOCK):
        e1 = min(e0 + _BLOCK, total)
        # the runs r0 <= r < r1 meet the block [e0, e1), each in
        # min(end, e1) - max(begin, e0) >= 0 entries
        r0 = int(ends.searchsorted(e0, side="right"))
        r1 = int(ends.searchsorted(e1 - 1, side="right")) + 1
        end = ends[r0:r1]
        i = np.arange(r0, r1).repeat(np.minimum(end, e1) - np.maximum(end - count[r0:r1], e0))
        yield i, _entries(i, e0, e1, base, step)


def _entries(i: np.ndarray, e0: int, e1: int, base: np.ndarray, step: np.ndarray) -> np.ndarray:
    # entries e0 <= k < e1 of the runs, built in place so that a block
    # holds no more than three arrays of its size at once
    value = np.arange(e0, e1)
    value *= step[i]
    value += base[i]
    return value


def _v2(n: int) -> int:
    # 2-adic valuation of a nonzero integer
    return (n & -n).bit_length() - 1


@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, as a cached immutable tuple."""
    if limit < 2:
        return ()
    return (2, *(2 * np.flatnonzero(odd_prime_flags(limit)) + 1).tolist())


@lru_cache(maxsize=2)
def odd_prime_flags(limit: int) -> np.ndarray:
    """flags[i] == 1 iff 2*i + 1 is prime, covering odd n <= limit.

    The returned array is read-only: the cache shares it with every caller.
    """
    if limit < 1:
        raise Refusal("sieve limit must be >= 1")
    flags = np.ones((limit + 1) // 2, dtype=np.uint8)
    flags[0] = 0  # 1 is not prime
    for q in range(3, math.isqrt(limit) + 1, 2):
        if flags[q // 2]:
            flags[q * q // 2 :: q] = 0
    flags.flags.writeable = False
    return flags


def sqrt_minus_one_mod_p(p: int) -> int:
    """The smaller square root r of -1 mod p (0 < r < p/2), p = 1 mod 4."""
    if p % 4 != 1 or not is_prime(p):
        raise Refusal(f"need a prime = 1 mod 4, got {p}")
    # d^((p-1)/4) for the least non-residue d
    d = 2
    while pow(d, (p - 1) // 2, p) != p - 1:
        d += 1
    r = pow(d, (p - 1) // 4, p)
    r = min(r, p - r)
    assert r * r % p == p - 1
    return r


@dataclass(frozen=True)
class PrimeWitness:
    """A prime p = a^2 + b^2 with a odd, normalized a = 1 mod 4, b > 0.

    c is present exactly when b is a perfect square (then b = c^2 with
    c > 0 even, so p = a^2 + c^4).  For p = 5 mod 8 the even part has
    b = 2 mod 4 and c is always absent.
    """

    p: int
    a: int
    b: int
    c: int | None = None

    def __post_init__(self):
        if self.a % 4 != 1:
            raise ValueError(f"witness a must be odd and 1 mod 4, got {self.a}")
        if self.b <= 0 or self.b % 2:
            raise ValueError(f"witness b must be positive and even, got {self.b}")
        if self.a * self.a + self.b * self.b != self.p:
            raise ValueError(f"a^2 + b^2 != p for (a={self.a}, b={self.b}, p={self.p})")
        if self.c is not None:
            if self.c <= 0 or self.c % 2 or self.c * self.c != self.b:
                raise ValueError(f"witness c must be positive, even, c^2 = b, got {self.c}")


def decompose_two_squares(p: int) -> PrimeWitness:
    """Write prime p = 1 mod 4 as a^2 + b^2 via descent from sqrt(-1).

    Euclidean descent on (p, r) with r^2 = -1 mod p: the first remainder
    below sqrt(p) is one leg of the (essentially unique) decomposition.
    """
    r = sqrt_minus_one_mod_p(p)  # validates p
    u, v = p, r
    root = math.isqrt(p)
    while v > root:
        u, v = v, u % v
    x = v
    y = math.isqrt(p - x * x)
    assert x * x + y * y == p
    if x % 2 == 0:
        x, y = y, x
    a = x if x % 4 == 1 else -x
    b = y
    croot = math.isqrt(b)
    c = croot if croot * croot == b else None
    return PrimeWitness(p=p, a=a, b=b, c=c)


def represent_x2_32y2(p: int) -> tuple[int, int] | None:
    """The representation p = x^2 + 32 y^2 with smallest y >= 0, or None."""
    if not is_prime(p):
        raise Refusal(f"need a prime, got {p}")
    for y in range(math.isqrt(p // 32) + 1):
        t = p - 32 * y * y
        x = math.isqrt(t)
        if x * x == t:
            return (x, y)
    return None
