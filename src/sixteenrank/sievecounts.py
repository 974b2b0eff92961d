"""Counting primes a^2 + c^4 <= X in congruence classes, with densities.

The lattice count follows the double sum convention: a and c run over
all integers (both signs), subject to a = a0 mod q1 and c = c0 mod q2,
and every representing pair is counted.  Distinct mode counts the set
of primes so represented.  The expected main term is

    c(q1, q2) * (16 kappa / pi) * X^(3/4) / log X,

with kappa = int_0^1 sqrt(1 - t^4) dt and c(q1, q2) the exact rational
density constant; for the class (a0 mod 16, c0 mod 4) of an odd a0 and
even c0 it specializes to (kappa / 2 pi) X^(3/4) / log X.  kappa is a
float constant, the value adaptive quadrature gives, so nothing here
needs scipy.
c(q1, q2) exists when a^2 + c^4 is a unit mod lcm(q1, q2) for every lift.
CRT makes the lifts independent mod each prime of the modulus, so
density_constant decides that prime by prime, in the one pass that
multiplies in the local factors (1 - g(p))^-1, and names the first lift
that fails.

prime_rows is the one walk of the family: the counts here and the
verify sweep's witnesses (cli.form_witnesses) all read its rows.  Each
row of fixed c strikes the a with a^2 + c^4 divisible by a prime q up to
a bound: a = 0 mod q when q | c, a odd when q = 2 and c is odd,
a = +-r_q c^2 mod q with r_q^2 = -1 when q = 1 mod 4, and a whole row or
none of it when q | q1, as the row's a all lie in one class mod q.  The
primes, +-r_q q1^-1 and q1^-1 mod q do not depend on c, so each prime_rows
call builds them once: r_q = x y^-1 mod q from the one way to write
q = x^2 + y^2 with x odd and y even, which a single pass over the x, y up
to the bound's square root finds for every q, and all the inverses from
one vectorised modular power.  A row then finds the first index of every
root, k0 = (+-r_q q1^-1 c^2 - start q1^-1) mod q, with one reduction per
prime, and tests q | c only for the q = 3 mod 4 up to |c| (all of them
when c = 0).  A prime q no less than the row's length strikes it at most
once, at that index; only the smaller primes walk their progressions.
Up to X = _SIEVE_LIMIT the bound is sqrt(X), so a survivor above it is
prime, and the values up to sqrt(X), which a prime q = n strikes from its
own row, are read from the odd-only sieve of arith up to sqrt(X).  Above
_SIEVE_LIMIT only the primes up to sqrt(X)/2 strike, so a composite
survivor is a product of two primes above sqrt(X)/2, and deterministic
Miller-Rabin decides the survivors.  A row with c^4 above the bound holds
no value up to it.  The rows c and -c hold the same a, so a class that
holds both walks c > 0 only and yields each row once, with weight 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import _powmod, _runs, is_prime, odd_prime_flags
from .errors import Refusal

_X_LIMIT = 10**10
# up to this X every row is struck by all primes <= sqrt(X); above it only
# the primes <= sqrt(X)/2 strike, then Miller-Rabin decides the rest
_SIEVE_LIMIT = 3 * 10**8


@dataclass(frozen=True)
class CongruencePair:
    """Congruence constraints a = a0 mod q1, c = c0 mod q2."""

    a0: int
    q1: int
    c0: int
    q2: int

    def __post_init__(self):
        if self.q1 < 1 or self.q2 < 1:
            raise Refusal("moduli must be >= 1")
        if not (0 <= self.a0 < self.q1 and 0 <= self.c0 < self.q2):
            raise Refusal("residues must satisfy 0 <= a0 < q1, 0 <= c0 < q2")


TRIVIAL_PAIR = CongruencePair(0, 1, 0, 1)


def canonical_pairs() -> tuple[CongruencePair, ...]:
    """The 16 classes (a0 odd mod 16, c0 in {0, 2} mod 4)."""
    return tuple(
        CongruencePair(a0, 16, c0, 4) for a0 in range(1, 16, 2) for c0 in (0, 2)
    )


def _prime_divisors(q: int) -> list[int]:
    # the primes dividing q >= 1, by trial division
    out = []
    r = 2
    while r * r <= q:
        if q % r == 0:
            out.append(r)
            while q % r == 0:
                q //= r
        r += 1 if r == 2 else 2
    if q > 1:
        out.append(q)
    return out


def _residues(r: int, m: int, ell: int):
    # the residues mod the prime ell of the lifts r + i m
    return (r % ell,) if m % ell == 0 else range(ell)


def _progression(lo: int, hi: int, r: int, q: int) -> np.ndarray:
    # integers in [lo, hi] congruent to r mod q
    start = lo + (r - lo) % q
    return np.arange(start, hi + 1, q, dtype=np.int64)


class _Strike(NamedTuple):
    """The primes q <= bound that strike a row, and what each needs.  No
    field depends on c, so one table serves every row of a class."""

    bound: int
    flags: np.ndarray  # arith.odd_prime_flags(bound)
    whole: int  # the product of the q | q1; a row lies in one class mod each
    # the q = 2 and q = 1 mod 4 that do not divide q1, increasing, each
    # listed twice, once per root +-r of r^2 = -1 mod q: q, the signed
    # +-r q1^-1 mod q, and q1^-1 mod q
    rooted_q: np.ndarray
    rooted_rinv: np.ndarray
    rooted_inv: np.ndarray
    # the q = 3 mod 4 that do not divide q1, increasing, and q1^-1 mod q
    rootless_q: np.ndarray
    rootless_inv: np.ndarray


def _strike_table(bound: int, q1: int) -> _Strike:
    # one lookup of the shared sieve, bound >= 1
    flags = odd_prime_flags(bound)
    q = 2 * np.flatnonzero(flags).astype(np.int64) + 1
    if bound >= 2:
        q = np.concatenate(([2], q))
    # each q = 1 mod 4 is x^2 + y^2 for one odd x > 0 and one even y > 0, so
    # one pass over those x, y up to sqrt(bound) finds every q, and r = x y^-1
    # has r^2 = -1 mod q; 2 = 1^2 + 1^2 with r = 1
    root = math.isqrt(bound)
    x, y = np.arange(1, root + 1, 2), np.arange(2, root + 1, 2)
    n = (x[:, None] ** 2 + y**2).ravel()
    fit = np.flatnonzero(n <= bound)
    at = np.zeros(flags.size, dtype=np.int64)  # at[q >> 1]: q's index in n
    at[n[fit] >> 1] = fit
    rq = q[(q % 4 == 1) & (q1 % q != 0)]
    at = at[rq >> 1]
    rx, ry = x[at // y.size], y[at % y.size]
    if bound >= 2 and q1 % 2:
        rq, rx, ry = np.r_[2, rq], np.r_[1, rx], np.r_[1, ry]
    zq = q[(q % 4 == 3) & (q1 % q != 0)]
    # one modular power gives (y q1)^-1 mod each rooted q and q1^-1 mod each
    # rootless q; then r q1^-1 = x (y q1)^-1 and q1^-1 = y (y q1)^-1
    mods = np.concatenate((rq, zq))
    t = _powmod(np.r_[ry, np.ones_like(zq)] * (q1 % mods) % mods, mods - 2, mods)
    t, zinv = t[: rq.size], t[rq.size :]
    rinv = rx * t % rq
    return _Strike(
        bound, flags, math.prod(q[q1 % q == 0].tolist()),
        rq.repeat(2), np.column_stack((rinv, -rinv)).ravel(), (ry * t % rq).repeat(2), zq, zinv,
    )


def _strike_survivors(n: np.ndarray, start: int, c: int, strike: _Strike) -> np.ndarray:
    # mask of the n = a^2 + c^4 of a row (a = start, start + q1, ...) with no
    # prime factor q <= strike.bound, or with n <= strike.bound
    keep = np.ones(n.size, dtype=bool)
    # a row lies in one class mod each q | q1: q strikes all of it, when
    # q | start^2 + c^4, or none of it
    if math.gcd(start * start + c**4, strike.whole) > 1:
        keep[:] = False
    else:
        # the roots of a^2 = -c^4 mod q are +-r c^2; a q = 3 mod 4 has only
        # the root 0, when q | c: every such q when c = 0, else a q <= |c|.
        # k0 is a root's first index in the row, start + k0 q1 = root mod q,
        # so k0 = (+-r q1^-1 c^2 - start q1^-1) mod q.  The bound is at most
        # sqrt(X) (sqrt(X)/2 = 5*10^4 at 10^10 on the Miller-Rabin branch),
        # so with q <= sqrt(X), c^2 <= sqrt(X) and |start| <= sqrt(X), each
        # product is at most _X_LIMIT = 10^10 in size, and int64 holds them
        # unreduced
        qr = strike.rooted_q
        head = np.searchsorted(strike.rootless_q, abs(c), side="right") if c else None
        zero = np.flatnonzero(c % strike.rootless_q[:head] == 0)
        qz = strike.rootless_q[zero]
        k0 = (strike.rooted_rinv * (c * c) - start * strike.rooted_inv) % qr
        # a q no less than the row's length strikes it at most once
        few = np.searchsorted(qr, n.size)
        once = k0[few:]
        keep[once[once < n.size]] = False
        qs = np.concatenate((qr[:few], qz))
        k0 = np.concatenate((k0[:few], -start * strike.rootless_inv[zero] % qz))
        for _, struck in _runs(k0, qs, (n.size - 1 - k0) // qs + 1):
            keep[struck] = False
    keep |= n <= strike.bound
    return keep


def prime_rows(x: int, pair: CongruencePair):
    """Yield (c, a, k) once per walked row of the class: a is the int64
    array of the a with a^2 + c^4 <= x prime, in increasing order, and k
    is 2 when the row -c, which holds the same a, is in the class (then
    c > 0), else 1."""
    _check_x(x)
    if x < 2:
        return
    sieve = x <= _SIEVE_LIMIT
    root = math.isqrt(x)
    strike = _strike_table(root if sieve else max(1, root // 2), pair.q1)
    cmax = math.isqrt(root)
    # when the class holds both signs of c, walk c > 0: the row c = 0 holds
    # only the squares a^2, none of them prime
    k = 2 if 2 * pair.c0 % pair.q2 == 0 else 1
    for c in _progression(1 if k == 2 else -cmax, cmax, pair.c0, pair.q2).tolist():
        c4 = c**4
        amax = math.isqrt(x - c4)
        a = _progression(-amax, amax, pair.a0, pair.q1)
        if a.size == 0:
            continue
        n = a * a + c4
        prime = _strike_survivors(n, int(a[0]), c, strike)
        if not sieve:
            # a survivor may have a prime factor between the bound and sqrt(x)
            test = prime & (n > strike.bound)
            prime[test] = [is_prime(v) for v in n[test].tolist()]
        if c4 <= strike.bound:
            # the values up to the bound survive the strike; the sieve decides them
            small = np.flatnonzero(n <= strike.bound)
            v = n[small]
            prime[small] = v == 2
            odd = v & 1 == 1
            prime[small[odd]] = strike.flags[v[odd] >> 1]
        yield c, a[prime], k


def _check_x(x: int) -> None:
    if x < 0 or x > _X_LIMIT:
        raise Refusal(f"X must lie in [0, {_X_LIMIT}], got {x}")


def count_primes(x: int, pair: CongruencePair, mode: str = "lattice") -> int:
    """Count primes a^2 + c^4 <= x under the pair's congruences.

    mode "lattice" counts representing integer pairs with multiplicity
    (both signs of a and c); mode "distinct" counts the represented
    primes once each.
    """
    if mode not in ("lattice", "distinct"):
        raise Refusal(f"mode must be 'lattice' or 'distinct', got {mode!r}")
    if mode == "lattice":
        return sum(k * int(a.size) for _, a, k in prime_rows(x, pair))
    return int(represented_primes(x, pair).size)


def represented_primes(x: int, pair: CongruencePair) -> np.ndarray:
    """Sorted distinct primes a^2 + c^4 <= x matching the congruences.

    One in-place sort of the walked rows' values, keeping the first of each
    run of equal values, collapses a prime on rows of different |c|
    (17 = 1^2 + 2^4 = 4^2 + 1^4); no hash set is built.
    """
    values = np.concatenate(
        [np.empty(0, dtype=np.int64), *(a * a + c**4 for c, a, _ in prime_rows(x, pair))]
    )
    values.sort()
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def kappa() -> float:
    """kappa = int_0^1 sqrt(1 - t^4) dt = Gamma(1/4)^2 / (6 sqrt(2 pi)).

    The double that adaptive quadrature (scipy.integrate.quad, epsabs =
    epsrel = 1e-12) returns, 0x1.bf7f714d46b99p-1.  It lies 3 ulp above
    the double nearest the true 0.87401918476399993682..., and is kept
    as is: the main terms, and so every report's bytes, are built from
    these bits.  The tests check it against the quadrature and the
    Gamma form.
    """
    return 0.8740191847640403


def g_value(p: int) -> Fraction:
    """The local density g(p) at a prime p, exact.

    g(2) = 1/2; for odd p, g(p) p = 1 + chi4(p)(1 - 1/p), where chi4 is
    the character mod 4.
    """
    if not is_prime(p):
        raise Refusal(f"need a prime, got {p}")
    if p == 2:
        return Fraction(1, 2)
    chi = 1 if p % 4 == 1 else -1
    return (1 + chi * (1 - Fraction(1, p))) / p


def density_constant(pair: CongruencePair) -> Fraction:
    """c(q1, q2) = (1 / q1 q2) prod_{p | q} (1 - g(p))^-1, exact.

    The one pass over the primes ell | q = lcm(q1, q2) also decides
    admissibility.  By CRT the lifts a1 = a0 + i q1, c1 = c0 + j q2 mod q
    run independently mod each ell, and ell divides q1 or q2, so a or c is
    fixed mod ell and listing the roots (a, c) mod ell of a^2 + c^4 costs
    O(ell).  An ell that does not divide q1 divides q / q1, so i runs over
    every residue mod ell and first reaches a at i = (a - a0) q1^-1 mod ell;
    likewise j for c, and 0 on the fixed side.  The least (i, j) over every
    ell is then the first lift, a1 outer and c1 inner, that the refusal
    names.
    """
    q = math.lcm(pair.q1, pair.q2)
    out = Fraction(1, pair.q1 * pair.q2)
    lifts = []
    for ell in _prime_divisors(q):
        inv1 = 0 if pair.q1 % ell == 0 else pow(pair.q1, -1, ell)
        inv2 = 0 if pair.q2 % ell == 0 else pow(pair.q2, -1, ell)
        lifts.extend(
            ((a - pair.a0) * inv1 % ell, (c - pair.c0) * inv2 % ell)
            for a in _residues(pair.a0, pair.q1, ell)
            for c in _residues(pair.c0, pair.q2, ell)
            if (a * a + c**4) % ell == 0
        )
        out /= 1 - g_value(ell)
    if lifts:
        i, j = min(lifts)
        a1, c1 = pair.a0 + i * pair.q1, pair.c0 + j * pair.q2
        raise Refusal(
            f"pair is not admissible: {a1}^2 + {c1}^4 = "
            f"{(a1 * a1 + c1**4) % q} mod {q} is not invertible"
        )
    return out


def expected_main_term(x: int, pair: CongruencePair) -> float:
    """c(q1, q2) * (16 kappa / pi) * X^(3/4) / log X."""
    if x < 2:
        raise Refusal(f"main term needs X >= 2, got {x}")
    dens = density_constant(pair)  # validates admissibility
    return float(dens) * (16.0 * kappa() / math.pi) * x**0.75 / math.log(x)


@dataclass(frozen=True)
class ClassCount:
    """Counts for one congruence class at one X.  ratio is lattice_count /
    expected; in a canonical class it is twice distinct_count / expected."""

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


def count_report(x: int, pairs=None) -> CountReport:
    """Build a CountReport over the given pairs (default: the 16 classes)."""
    pairs = canonical_pairs() if pairs is None else tuple(pairs)
    _check_x(x)
    # each main term checks its pair, so an inadmissible pair is refused
    # before any row is walked
    main_terms = [expected_main_term(x, pair) for pair in pairs]
    rows = []
    for pair, expected in zip(pairs, main_terms):
        lattice = count_primes(x, pair, "lattice")
        distinct = count_primes(x, pair, "distinct")
        rows.append(
            ClassCount(
                pair=pair,
                lattice_count=lattice,
                distinct_count=distinct,
                expected=expected,
                ratio=lattice / expected,
            )
        )
    return CountReport(x=x, rows=tuple(rows))
