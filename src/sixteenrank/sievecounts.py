"""Counting primes a^2 + c^4 <= X in congruence classes, with densities.

The lattice count follows the double sum convention: a and c run over
all integers (both signs), subject to a = a0 mod q1 and c = c0 mod q2,
and every representing pair is counted.  Distinct mode counts the set
of primes so represented.  The expected main term is

    c(q1, q2) * (16 kappa / pi) * X^(3/4) / log X,

with kappa = int_0^1 sqrt(1 - t^4) dt and c(q1, q2) the exact rational
density constant; for the class (a0 mod 16, c0 mod 4) of an odd a0 and
even c0 it specializes to (kappa / 2 pi) X^(3/4) / log X.

prime_rows is the one walk of the family: the counts here and the
verify sweep's witnesses (cli.form_witnesses) all read its rows.
Primality for X up to a few 1e8 is answered by the shared odd-only sieve
of arith.  Beyond that, each row of fixed c first strikes the a with
a^2 + c^4 divisible by a prime below _STRIKE_BOUND (a = 0 mod q when
q | c, a odd when c is odd, a = +-r_q c^2 mod q with r_q^2 = -1 when
q = 1 mod 4), and deterministic Miller-Rabin decides only the survivors.
In both paths the rows c and -c hold the same a, so a class that holds
both walks the row once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import is_prime, odd_prime_flags, primes_up_to, sqrt_minus_one_mod_p
from .errors import Refusal

_X_LIMIT = 10**10
_SIEVE_LIMIT = 3 * 10**8
# primes below this strike their roots from a row before Miller-Rabin
_STRIKE_BOUND = 1000


@dataclass(frozen=True)
class CongruencePair:
    """Congruence constraints a = a0 mod q1, c = c0 mod q2."""

    a0: int
    q1: int
    c0: int
    q2: int

    def __post_init__(self):
        if self.q1 < 1 or self.q2 < 1:
            raise ValueError("moduli must be >= 1")
        if not (0 <= self.a0 < self.q1 and 0 <= self.c0 < self.q2):
            raise ValueError("residues must satisfy 0 <= a0 < q1, 0 <= c0 < q2")


TRIVIAL_PAIR = CongruencePair(0, 1, 0, 1)


def canonical_pairs() -> tuple[CongruencePair, ...]:
    """The 16 classes (a0 odd mod 16, c0 in {0, 2} mod 4)."""
    return tuple(
        CongruencePair(a0, 16, c0, 4) for a0 in range(1, 16, 2) for c0 in (0, 2)
    )


def is_admissible(pair: CongruencePair) -> bool:
    """Whether a^2 + c^4 is a unit mod q = lcm(q1, q2) for every lift."""
    return _find_violation(pair) is None


def _find_violation(pair: CongruencePair) -> tuple[int, int, int] | None:
    # first lift (a1, c1) mod q with gcd(a1^2 + c1^4, q) > 1, else None
    q = math.lcm(pair.q1, pair.q2)
    for a1 in range(pair.a0 % q, q, pair.q1):
        for c1 in range(pair.c0 % q, q, pair.q2):
            if math.gcd(a1 * a1 + c1**4, q) != 1:
                return (a1, c1, q)
    return None


def _progression(lo: int, hi: int, r: int, q: int) -> np.ndarray:
    # integers in [lo, hi] congruent to r mod q
    start = lo + (r - lo) % q
    return np.arange(start, hi + 1, q, dtype=np.int64)


@lru_cache(maxsize=1)
def _strike_primes() -> tuple[tuple[int, int], ...]:
    # (q, r) per prime q < _STRIKE_BOUND, with r^2 = -1 mod q when q = 1 mod 4
    return tuple(
        (q, sqrt_minus_one_mod_p(q) if q % 4 == 1 else 0)
        for q in primes_up_to(_STRIKE_BOUND - 1)
    )


def _strike_survivors(n: np.ndarray, start: int, c: int, q1: int) -> np.ndarray:
    # mask of the n = a^2 + c^4 of a row (a = start, start + q1, ...) with no
    # prime factor q < _STRIKE_BOUND, or with n <= _STRIKE_BOUND: the values
    # left to Miller-Rabin
    keep = np.ones(n.size, dtype=bool)
    for q, r in _strike_primes():
        if c % q == 0:
            roots = (0,)
        elif q == 2:
            roots = (1,)
        elif r:
            s = r * c * c % q
            roots = (s, q - s)
        else:
            continue  # q = 3 mod 4 and q does not divide c: no roots
        if q1 % q == 0:
            # every a of the row lies in one class mod q
            if start % q in roots:
                keep[:] = False
                break
            continue
        step = pow(q1, -1, q)
        for root in roots:
            keep[(root - start) * step % q :: q] = False
    keep |= n <= _STRIKE_BOUND
    return keep


def prime_rows(x: int, pair: CongruencePair):
    """Yield (c, a) per row of the class: a is the int64 array of the a
    with a^2 + c^4 <= x prime, in increasing order."""
    if x < 2:
        return
    flags = odd_prime_flags(max(x, 3)) if x <= _SIEVE_LIMIT else None
    cmax = math.isqrt(math.isqrt(x))
    # the rows c and -c hold the same a; when the class holds both, walk
    # c >= 0 and yield each row with c > 0 for both signs
    symmetric = 2 * pair.c0 % pair.q2 == 0
    for c in _progression(0 if symmetric else -cmax, cmax, pair.c0, pair.q2).tolist():
        c4 = c**4
        amax = math.isqrt(x - c4)
        a = _progression(-amax, amax, pair.a0, pair.q1)
        if a.size == 0:
            continue
        n = a * a + c4
        if flags is not None:
            prime = n == 2
            odd = n & 1 == 1
            prime[odd] = flags[n[odd] >> 1]
        else:
            prime = _strike_survivors(n, int(a[0]), c, pair.q1)
            prime[prime] = [is_prime(v) for v in n[prime].tolist()]
        a = a[prime]
        yield c, a
        if symmetric and c:
            yield -c, a


def count_primes(x: int, pair: CongruencePair, mode: str = "lattice") -> int:
    """Count primes a^2 + c^4 <= x under the pair's congruences.

    mode "lattice" counts representing integer pairs with multiplicity
    (both signs of a and c); mode "distinct" counts the represented
    primes once each.
    """
    if mode not in ("lattice", "distinct"):
        raise Refusal(f"mode must be 'lattice' or 'distinct', got {mode!r}")
    if x < 0 or x > _X_LIMIT:
        raise Refusal(f"X must lie in [0, {_X_LIMIT}], got {x}")
    if mode == "lattice":
        return sum(int(a.size) for _, a in prime_rows(x, pair))
    return int(represented_primes(x, pair).size)


def represented_primes(x: int, pair: CongruencePair) -> np.ndarray:
    """Sorted distinct primes a^2 + c^4 <= x matching the congruences."""
    if x < 0 or x > _X_LIMIT:
        raise Refusal(f"X must lie in [0, {_X_LIMIT}], got {x}")
    values = [a * a + c**4 for c, a in prime_rows(x, pair)]
    if not values:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(values))


@lru_cache(maxsize=1)
def kappa() -> float:
    """kappa = int_0^1 sqrt(1 - t^4) dt by adaptive quadrature."""
    from scipy.integrate import quad  # only kappa needs scipy; import it late

    value, err = quad(lambda t: math.sqrt(1.0 - t**4), 0.0, 1.0,
                      epsabs=1e-12, epsrel=1e-12)
    if err >= 1e-10:
        raise ArithmeticError(f"quadrature did not converge: error estimate {err}")
    return value


def _chi4(n: int) -> int:
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def g_value(p: int, j: int = 1) -> Fraction:
    """The local density g(p^j), exact.

    g(2) = 1/2, g(4) = 1/4; for odd p:
    g(p) p = 1 + chi4(p)(1 - 1/p)  and  g(p^2) p^2 = 1 + (1 + chi4(p))(1 - 1/p).
    """
    if j >= 3:
        raise Refusal("g is supported on cubefree arguments (j <= 2)")
    if j < 1 or not is_prime(p):
        raise Refusal(f"need a prime power p^j with j in {{1, 2}}, got {p}^{j}")
    if p == 2:
        return Fraction(1, 2) if j == 1 else Fraction(1, 4)
    chi = _chi4(p)
    if j == 1:
        return (1 + chi * (1 - Fraction(1, p))) / p
    return (1 + (1 + chi) * (1 - Fraction(1, p))) / p**2


def density_constant(pair: CongruencePair) -> Fraction:
    """c(q1, q2) = (1 / q1 q2) prod_{p | q} (1 - g(p))^-1, exact."""
    violation = _find_violation(pair)
    if violation is not None:
        a1, c1, q = violation
        raise Refusal(
            f"pair is not admissible: {a1}^2 + {c1}^4 = "
            f"{(a1 * a1 + c1**4) % q} mod {q} is not invertible"
        )
    q = math.lcm(pair.q1, pair.q2)
    out = Fraction(1, pair.q1 * pair.q2)
    m = q
    r = 2
    while r * r <= m:
        if m % r == 0:
            out /= 1 - g_value(r, 1)
            while m % r == 0:
                m //= r
        r += 1 if r == 2 else 2
    if m > 1:
        out /= 1 - g_value(m, 1)
    return out


def expected_main_term(x: int, pair: CongruencePair) -> float:
    """c(q1, q2) * (16 kappa / pi) * X^(3/4) / log X."""
    if x < 2:
        raise Refusal(f"main term needs X >= 2, got {x}")
    dens = density_constant(pair)  # validates admissibility
    return float(dens) * (16.0 * kappa() / math.pi) * x**0.75 / math.log(x)


@dataclass(frozen=True)
class ClassCount:
    """Counts for one congruence class at one X; ratio is count/expected."""

    pair: CongruencePair
    lattice_count: int
    distinct_count: int
    expected: float
    ratio: float


@dataclass(frozen=True)
class CountReport:
    """Per-class counts at a common X."""

    x: int
    rows: tuple[ClassCount, ...]


def count_report(x: int, pairs=None, ratio_mode: str = "lattice") -> CountReport:
    """Build a CountReport over the given pairs (default: the 16 classes)."""
    if ratio_mode not in ("lattice", "distinct"):
        raise Refusal(f"ratio_mode must be 'lattice' or 'distinct', got {ratio_mode!r}")
    if pairs is None:
        pairs = canonical_pairs()
    rows = []
    for pair in pairs:
        lattice = count_primes(x, pair, "lattice")
        distinct = count_primes(x, pair, "distinct")
        expected = expected_main_term(x, pair)
        basis = lattice if ratio_mode == "lattice" else distinct
        rows.append(
            ClassCount(
                pair=pair,
                lattice_count=lattice,
                distinct_count=distinct,
                expected=expected,
                ratio=basis / expected,
            )
        )
    return CountReport(x=x, rows=tuple(rows))
