"""Class numbers of discriminant -4p by reduced forms and by character sum.

Two independent routes to h(-4p) for primes p = 1 mod 4:

  * class_number_enum counts the reduced positive definite forms
    (A, B, C) of discriminant -4p grouped by the leading coefficient A.
    For A < sqrt(p) there are rho(A) of them, rho(A) being the number
    of roots of x^2 = -p (mod A): a multiplicative function read off
    the square roots of -p modulo the odd primes q.  What rho needs
    besides those roots does not depend on p, and is kept in one table
    per process that only grows, as far as the calls' A reach: the odd
    primes and the pairs (A, q) with q | A, each with its count up to
    every A, the weights 2^omega(A), each A's modulus (its largest prime
    factor up to _RESIDUE_CUT, or 1) and the square roots mod each q up
    to _RESIDUE_CUT, each part computed once.  A p then costs one gather of its roots and one
    that zeroes the A with a non-split factor.  For
    sqrt(p) < A <= sqrt(4p/3) the same roots leave few B = 2b to test,
    those with b = +-t modulo A's modulus, and one pass over both
    classes tests them;
  * class_number_dirichlet evaluates the finite character-sum form of
    the analytic class number formula over half the period,
    h = |sum_{a < 2p} chi(a)| / 2.

They share nothing but the discriminant convention (always -4p, the
fundamental discriminant for p = 1 mod 4), so agreement is meaningful.
Gauss composition of primitive forms is Shanks' formula on the
coefficients, followed by reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import (
    _powmod,
    _runs,
    _v2,
    decompose_two_squares,
    is_prime,
    primes_up_to,
    represent_x2_32y2,
)
from .errors import Refusal

_ENUM_LIMIT = 2 * 10**9
_DIRICHLET_LIMIT = 10**6
# (-p | q) is read from a table of square roots mod q up to this q, which
# covers every p the command line accepts; Euler's criterion decides larger q
_RESIDUE_CUT = 4096


@dataclass(frozen=True)
class QForm:
    """Integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def reduced(self) -> "QForm":
        # Cohen, GTM 138, Alg. 5.4.2: shear b into (-a, a], then swap
        # a and c until a <= c
        a, b, c = self.a, self.b, self.c
        if a <= 0 or self.disc >= 0:
            raise Refusal(f"only positive definite forms reduce, got {self}")
        while True:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
            if a < c or (a == c and b >= 0):
                return QForm(a, b, c)
            a, b, c = c, -b, a


def principal_form(p: int) -> QForm:
    return QForm(1, 0, p)


def two_torsion_form(p: int) -> QForm:
    """The reduced form (2, 2, (p+1)/2) over the ramified prime above 2."""
    return QForm(2, 2, (p + 1) // 2)


@dataclass(frozen=True)
class ClassData:
    p: int
    h: int
    v2: int


def class_number_enum(p: int) -> ClassData:
    """h(-4p) as the count of reduced forms of discriminant -4p.

    A reduced form is (A, 2b, C) with |2b| <= A <= C, AC = p + b^2, and
    b >= 0 when 2|b| = A or A = C; so A <= sqrt(4p/3).  The forms are
    counted grouped by the leading coefficient A (Cohen, GTM 138, 5.3):

      * A^2 < p: then C > A, and the forms with leading coefficient A
        match one-to-one the roots x mod A of x^2 = -p (mod A), taking
        b as the root's representative in (-A/2, A/2].  So this part is
        the sum of rho(A) over A < sqrt(p), where rho is multiplicative
        with rho(2) = 1, rho(2^k) = 0 for k >= 2 (as -p = 3 mod 4), and
        rho(q^k) = 1 + (-p | q) for odd primes q, none of which divides p.
        Each (-p | q) is read from a cached table of square roots mod q
        for q <= _RESIDUE_CUT, which covers every p below 12,582,912,
        and from Euler's criterion above it.
      * sqrt(p) < A <= sqrt(4p/3): each b in [ceil(sqrt(A^2 - p)), A/2]
        with A | p + b^2 gives the two forms (A, +-2b, C).  They never
        coincide: 2b = A would need b | p, so A = 2, and A = C would need
        p = (A - b)(A + b), so A = (p + 1)/2 > sqrt(4p/3).  Such a b has
        b^2 = -p mod every prime q | A, so rho(A) > 0 and b = +-t (mod q)
        for the root t <= q/2 in the table.  Only the b of these two
        classes are tested, for the largest such q <= _RESIDUE_CUT, and
        every b when A has none, which needs A >= 4099 > _RESIDUE_CUT.
        Both classes of every such A are laid out as one set of
        progressions, so the test is one pass whatever the size of p.
    """
    if not is_prime(p) or p % 4 != 1:
        raise Refusal(f"need a prime = 1 mod 4, got {p}")
    if p > _ENUM_LIMIT:
        raise Refusal(f"enumeration budget is p <= {_ENUM_LIMIT}, got {p}")
    root = math.isqrt(p)  # A <= root iff A^2 < p, as p is not a square
    top = math.isqrt(4 * p // 3)
    table = _root_table(top)
    split, x = _splits(p, table.q[: table.primes[top]], table)
    # rho: the weights, zeroed at each A with a non-split odd prime factor
    pairs = table.pairs[top]
    rho = table.weight[: top + 1].copy()
    rho[table.pair_a[:pairs].compress(~split[table.pair_i[:pairs]])] = 0
    h = int(rho[: root + 1].sum())
    # each A above root with rho(A) > 0 twice: first for the b = t (mod m),
    # then for the b = -t, with m the modulus of A and t its root; an A with
    # no factor has m = 1, where any t serves, so it reads x[-1]
    a = rho[root + 1 :].nonzero()[0]
    a += root + 1
    n = a.size
    a = np.concatenate((a, a))
    k = table.factor[a]
    m = table.modulus[k]
    t = x[k]
    t[n:] *= -1
    # ceil(sqrt(A^2 - p)), exact: A^2 - p < 2^52, where the float root of a
    # non-square is never an integer and that of a square is exact
    lo = np.ceil(np.sqrt(a * a - p)).astype(np.int64)
    # each class from its first b >= lo up to A/2 >= lo - 1, as
    # 4(A^2 - p) <= A^2; mod 1 the second class is the first, so it is empty
    first = lo + (t - lo) % m
    count = ((a >> 1) - first) // m + 1
    count[n:][m[n:] == 1] = 0
    for i, b in _runs(first, m, count):
        h += 2 * int(np.count_nonzero((p + b * b) % a[i] == 0))
    return ClassData(p=p, h=h, v2=_v2(h))


class _RootTable(NamedTuple):
    """What rho needs for every A <= bound, none of it depending on p; the
    arrays indexed by A have bound + 1 entries."""

    q: np.ndarray  # the odd primes <= bound
    primes: np.ndarray  # primes[A]: how many q are <= A
    # the pairs (A, i) with q[i] | A <= bound, in increasing A
    pair_a: np.ndarray
    pair_i: np.ndarray
    pairs: np.ndarray  # pairs[A]: how many pairs have pair_a <= A
    weight: np.ndarray  # 2^(number of odd primes dividing A); 0 at A = 0 and 4 | A
    # factor[A]: the i of the largest q[i] <= _RESIDUE_CUT dividing A, or -1;
    # modulus[i] is q[i] for those q, and modulus[-1], for no factor, is 1
    factor: np.ndarray
    modulus: np.ndarray
    # for q[i] <= _RESIDUE_CUT, roots[offset[i] + r] is the x <= q[i]/2 with
    # x^2 = r (mod q[i]), or -1 when r is not a square mod q[i]
    roots: np.ndarray
    offset: np.ndarray


# A process holds one table, which starts at bound 0 (A = 0 alone) and only
# grows: a call whose A pass its bound extends it to the next multiple of
# _CHUNK, computing only the new A and the roots of the new q.  So no order of
# calls rebuilds a part, and a sweep in increasing p grows it a few times and
# holds little that it does not read
_CHUNK = 256
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY_TABLE = _RootTable(
    q=_EMPTY, primes=np.zeros(1, np.int32), pair_a=_EMPTY, pair_i=_EMPTY,
    pairs=np.zeros(1, np.int32), weight=np.zeros(1, np.int64), factor=np.full(1, -1),
    modulus=np.ones(1, np.int64), roots=np.zeros(0, np.int16), offset=_EMPTY,
)
_table = _EMPTY_TABLE


def _root_table(top: int) -> _RootTable:
    """The process's table, grown first if it does not reach A = top."""
    global _table
    if _table.weight.size <= top:
        _table = _grow(_table, -(-top // _CHUNK) * _CHUNK)
    return _table


def _grow(table: _RootTable, bound: int) -> _RootTable:
    """table extended to every A <= bound: only the A above its bound, and
    the roots of the q <= _RESIDUE_CUT it does not hold, are computed."""
    old = table.weight.size - 1
    q = np.array(primes_up_to(bound)[1:], dtype=np.int64)
    a = np.arange(old + 1, bound + 1)
    cut = int(q.searchsorted(_RESIDUE_CUT, side="right"))
    # one pass over the x <= q/2 of every new small q, in blocks of at most
    # _BLOCK; each block's x is reduced in place once its roots are kept
    small = q[table.offset.size : cut]
    offset = small.cumsum() - small
    roots = np.full(int(small.sum()), -1, dtype=np.int16)
    for i, x in _runs(np.zeros_like(small), np.ones_like(small), (small >> 1) + 1):
        root = x.astype(np.int16)
        x *= x
        x %= small[i]
        x += offset[i]
        roots[x] = root
    # the pairs of the new A come in increasing q, so those of the small q lead
    pair_i, pair_a = map(np.concatenate, zip(*_runs((old // q + 1) * q, q, bound // q - old // q)))
    lead = pair_i.searchsorted(cut)
    factor = np.full(a.size, -1)
    np.maximum.at(factor, pair_a[:lead] - (old + 1), pair_i[:lead])
    # sorted by A in place, as the keys A 2^16 + i: i < 2^16, since
    # bound < 2^16 at _ENUM_LIMIT
    pair_a <<= 16
    pair_a |= pair_i
    pair_a.sort()
    pair_i = pair_a & 0xFFFF
    pair_a >>= 16
    omega = np.bincount(pair_a - (old + 1), minlength=a.size)
    weight = 1 << omega
    weight[a % 4 == 0] = 0
    pairs = omega.cumsum(dtype=np.int32)
    pairs += table.pairs[-1]
    grown = _RootTable(
        q,
        np.concatenate((table.primes, q.searchsorted(a, side="right").astype(np.int32))),
        np.concatenate((table.pair_a, pair_a)),
        np.concatenate((table.pair_i, pair_i)),
        np.concatenate((table.pairs, pairs)),
        np.concatenate((table.weight, weight)),
        np.concatenate((table.factor, factor)),
        np.append(q[:cut], 1),
        np.concatenate((table.roots, roots)),
        np.concatenate((table.offset, offset + table.roots.size)),
    )
    for array in grown:
        array.flags.writeable = False
    return grown


def _splits(p: int, q: np.ndarray, table: _RootTable) -> tuple[np.ndarray, np.ndarray]:
    """For q a prefix of table.q not dividing p: whether (-p | q) == 1, and
    for the q <= _RESIDUE_CUT the root x <= q/2 of x^2 = -p (mod q), or -1.

    (-p | q) == 1 is x >= 0 up to _RESIDUE_CUT, Euler's criterion above it.
    """
    r = -p % q
    cut = min(q.size, table.offset.size)
    x = table.roots[table.offset[:cut] + r[:cut]]
    split = x >= 0
    if cut < q.size:
        split = np.concatenate((split, _powmod(r[cut:], q[cut:] >> 1, q[cut:]) == 1))
    return split, x


def class_number_dirichlet(p: int) -> int:
    """h(-4p) from the character sum h = (1/2) |sum_{a < 2p} chi(a)|.

    chi = chi_4 * (. | p) is the quadratic character of conductor 4p.
    The class number formula sums chi over half the period and divides
    by 2 - chi(2) = 2 (Cohen, GTM 138, 5.3).  The odd a < 2p reduce mod p
    to each residue r once, with chi_4(a) = +1 for r = 0, 1 mod 4 and -1
    for r = 2, 3, so one table of Legendre symbols mod p serves.
    """
    if not is_prime(p) or p % 4 != 1:
        raise Refusal(f"need a prime = 1 mod 4, got {p}")
    if p > _DIRICHLET_LIMIT:
        raise Refusal(f"character sum budget is p <= {_DIRICHLET_LIMIT}, got {p}")
    x = np.arange((p + 1) // 2, dtype=np.int64)
    legendre = np.full(p, -1, dtype=np.int8)
    legendre[x * x % p] = 1
    legendre[0] = 0
    s = [int(legendre[r::4].sum()) for r in range(4)]
    return abs(s[0] + s[1] - s[2] - s[3]) // 2


def compose(f: QForm, g: QForm) -> QForm:
    """Gauss composition of primitive forms, returned reduced.

    Shanks' formula (Cohen, GTM 138, Alg. 5.4.7): with s = (b1 + b2)/2,
    d1 = gcd(a1, a2, s) and the Bezout steps y1 a2 = gcd(a1, a2) mod a1
    and x2 s = d1 mod gcd(a1, a2), the product is the form with leading
    coefficient a1 a2 / d1^2 and b = b2 (mod 2 a2 / d1).  The formula
    holds for primitive forms only, so a form with gcd(a, b, c) > 1 is
    refused; every form of discriminant -4p, p prime, is primitive.
    """
    if f.disc != g.disc:
        raise Refusal(f"discriminants differ: {f.disc} != {g.disc}")
    d = f.disc
    if d >= 0 or d % 4 != 0:
        raise Refusal(f"need a negative discriminant divisible by 4, got {d}")
    if f.a <= 0 or g.a <= 0:
        raise Refusal("forms must be positive definite")
    if math.gcd(f.a, f.b, f.c) > 1 or math.gcd(g.a, g.b, g.c) > 1:
        raise Refusal(f"forms must be primitive, got {f} and {g}")
    s = (f.b + g.b) // 2
    e = math.gcd(f.a, g.a)
    y1 = pow(g.a // e, -1, f.a // e)
    d1 = math.gcd(s, e)
    x2 = pow(s // d1, -1, e // d1)
    y2 = (x2 * s - d1) // e
    v1, v2 = f.a // d1, g.a // d1
    r = (y1 * y2 * (g.b - s) - x2 * g.c) % v1
    c3 = (g.c * d1 + r * (g.b + v2 * r)) // v1
    return QForm(v1 * v2, g.b + 2 * v2 * r, c3).reduced()


@dataclass(frozen=True)
class Div8Chain:
    """The 4 | h and three-route 8 | h answers for one prime p = 1 mod 4."""

    div4: bool
    div8_forms: bool
    div8_2adic: bool
    div8_decomp: bool


def divisibility_chain(p: int) -> Div8Chain:
    """Evaluate the 4 and 8 divisibility criteria for h(-4p).

    p must be a prime = 1 mod 4, so 2 | h; 4 | h iff p = 1 mod 8; 8 | h
    three ways: p = x^2 + 32 y^2, and for p = 1 mod 8 the (1 + i | p)
    residue test and a + b = 1 mod 8 on the two-square witness.  The
    three agree.  The witness has a = 1 mod 4, and b = 0 mod 4 when
    p = 1 mod 8, so a + b is 1 or 5 mod 8 and never 7.

    The residue test asks whether 1 + r is a square mod p, r^2 = -1; the
    root does not matter, as (1 + r)(1 - r) = 2 is a square mod p.  With
    r = a/b mod p, 1 + r = (a + b) b / b^2, so Euler's criterion on
    (a + b) b decides it with no second search for r.
    """
    w = decompose_two_squares(p)  # refuses p unless a prime = 1 mod 4
    div4 = p % 8 == 1
    return Div8Chain(
        div4=div4,
        div8_forms=represent_x2_32y2(p) is not None,
        div8_2adic=div4 and pow((w.a + w.b) * w.b, (p - 1) // 2, p) == 1,
        div8_decomp=div4 and (w.a + w.b) % 8 == 1,
    )
