"""Class numbers of discriminant -4p by reduced forms and by character sum.

Two independent routes to h(-4p) for primes p = 1 mod 4:

  * class_number_enum counts the reduced positive definite forms
    (A, B, C) of discriminant -4p grouped by the leading coefficient A.
    For A < sqrt(p) there are rho(A) of them, rho(A) being the number
    of roots of x^2 = -p (mod A): a multiplicative function read off
    the Legendre symbols (-p | q) of the odd primes q.  For
    sqrt(p) < A <= sqrt(4p/3) the forms are found by scanning B;
  * class_number_dirichlet evaluates the finite character-sum form of
    the analytic class number formula, h = |sum a * chi(a)| / (4p).

They share nothing but the discriminant convention (always -4p, the
fundamental discriminant for p = 1 mod 4), so agreement is meaningful.
Gauss composition of forms is implemented through ideal multiplication
and a Hermite normal form of the product module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    _powmod,
    _runs,
    _v2,
    decompose_two_squares,
    is_prime,
    one_plus_i_is_square,
    primes_up_to,
    represent_x2_32y2,
)
from .errors import Refusal

_ENUM_LIMIT = 2 * 10**9
_DIRICHLET_LIMIT = 10**6


@dataclass(frozen=True)
class QForm:
    """Integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        # positive definite convention: -a < b <= a <= c, b >= 0 if a == c
        return (
            self.a > 0
            and -self.a < self.b <= self.a <= self.c
            and (self.b >= 0 or self.a != self.c)
        )

    def normalized(self) -> "QForm":
        r = (self.a - self.b) // (2 * self.a)
        return QForm(
            self.a,
            self.b + 2 * r * self.a,
            self.a * r * r + self.b * r + self.c,
        )

    def reduced(self) -> "QForm":
        f = self.normalized()
        while f.a > f.c or (f.a == f.c and f.b < 0):
            s = (f.c + f.b) // (2 * f.c)
            f = QForm(f.c, -f.b + 2 * s * f.c, f.c * s * s - f.b * s + f.a)
            f = f.normalized()
        return f

    def inverse(self) -> "QForm":
        return QForm(self.a, -self.b, self.c).reduced()


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
      * sqrt(p) < A <= sqrt(4p/3): here b runs over
        [ceil(sqrt(A^2 - p)), A/2] with A | p + b^2, and each such b
        gives the two forms (A, +-2b, C).  They never coincide: 2b = A
        would need b | p, so A = 2, and A = C would need
        p = (A - b)(A + b), so A = (p + 1)/2 > sqrt(4p/3).  Only A with
        rho(A) > 0 can divide some p + b^2.
    """
    if not is_prime(p) or p % 4 != 1:
        raise Refusal(f"need a prime = 1 mod 4, got {p}")
    if p > _ENUM_LIMIT:
        raise Refusal(f"enumeration budget is p <= {_ENUM_LIMIT}, got {p}")
    root = math.isqrt(p)  # A <= root iff A^2 < p, as p is not a square
    top = math.isqrt(4 * p // 3)
    rho = _root_counts(p, top)
    h = int(rho[: root + 1].sum(dtype=np.int64))
    a = np.flatnonzero(rho[root + 1 :]) + (root + 1)
    lo = _ceil_sqrt(a * a - p)
    count = a // 2 - lo + 1  # >= 0, since 4(A^2 - p) <= A^2
    for i, b in _runs(lo, np.ones_like(lo), count):
        h += 2 * int(np.count_nonzero((p + b * b) % a[i] == 0))
    return ClassData(p=p, h=h, v2=_v2(h))


def _root_counts(p: int, n: int) -> np.ndarray:
    """rho[A] = #{x mod A : x^2 = -p (mod A)} for 1 <= A <= n < p; rho[0] = 0.

    rho(A) is 0 when 4 | A or an odd prime q | A has (-p | q) = -1, and
    otherwise 2 to the number of odd primes dividing A.
    """
    # a power-of-two limit, so that primes_up_to's cache serves many p
    q = np.array(primes_up_to(1 << n.bit_length()), dtype=np.int64)
    q = q[(q > 2) & (q <= n)]
    split = _powmod(-p % q, q >> 1, q) == 1  # Euler's criterion
    # n <= sqrt(4 _ENUM_LIMIT / 3) < 3*5*7*11*13*17, so rho <= 2^5 fits int8
    rho = np.ones(n + 1, dtype=np.int8)
    rho[0] = 0
    rho[4::4] = 0
    for i, mult in _runs(q, q, n // q):
        s = split[i]
        np.multiply.at(rho, mult[s], np.int8(2))  # an int8 factor keeps the fast path
        rho[mult[~s]] = 0
    return rho


def _ceil_sqrt(m: np.ndarray) -> np.ndarray:
    # exact ceil(sqrt(m)) for 1 <= m < 2^52: the float root, corrected
    s = np.sqrt(m.astype(np.float64)).astype(np.int64)
    s -= s * s > m
    s += (s + 1) * (s + 1) <= m
    return s + (s * s < m)


def class_number_dirichlet(p: int) -> int:
    """h(-4p) from the finite character sum h = |sum_a a*chi(a)| / (4p).

    chi is the quadratic character of conductor 4p; for p = 1 mod 4 it
    factors as chi_4(a) * (a | p), with the Legendre symbol read off a
    quadratic-residue table mod p.
    """
    if not is_prime(p) or p % 4 != 1:
        raise Refusal(f"need a prime = 1 mod 4, got {p}")
    if p > _DIRICHLET_LIMIT:
        raise Refusal(f"character sum budget is p <= {_DIRICHLET_LIMIT}, got {p}")
    d = 4 * p
    residues = np.zeros(p, dtype=bool)
    sq = np.arange(p, dtype=np.int64)
    residues[(sq * sq) % p] = True
    a = np.arange(d, dtype=np.int64)
    legendre = np.where(residues[a % p], 1, -1)
    legendre[a % p == 0] = 0
    chi4 = np.zeros(d, dtype=np.int64)
    chi4[a % 4 == 1] = 1
    chi4[a % 4 == 3] = -1
    total = int(np.sum(a * legendre * chi4))
    assert total % d == 0
    return abs(total) // d


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, u, v) with u*a + v*b = g >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def compose(f: QForm, g: QForm) -> QForm:
    """Gauss composition, returned as the reduced representative.

    The forms are mapped to ideals [a, -b/2 + w] of Z[w], w = sqrt(-p),
    the product module is put in Hermite normal form, the content is
    split off, and the primitive ideal is mapped back to a form.
    """
    if f.disc != g.disc:
        raise Refusal(f"discriminants differ: {f.disc} != {g.disc}")
    d = f.disc
    if d >= 0 or d % 4 != 0:
        raise Refusal(f"need a negative discriminant divisible by 4, got {d}")
    if f.a <= 0 or g.a <= 0:
        raise Refusal("forms must be positive definite")
    p = -d // 4
    t1, t2 = -f.b // 2, -g.b // 2
    # generators of the product module, as x + y*w pairs
    gens = [
        (f.a * g.a, 0),
        (f.a * t2, f.a),
        (g.a * t1, g.a),
        (t1 * t2 - p, t1 + t2),
    ]
    # HNF: fold the w-coefficients to their gcd, eliminate, gcd the rest
    tx, cy = 0, 0
    for x, y in gens:
        if y:
            g_, u, v = _xgcd(cy, y)
            tx, cy = u * tx + v * x, g_
    aa = 0
    for x, y in gens:
        aa = math.gcd(aa, x - (y // cy) * tx)
    assert aa > 0 and aa * cy == f.a * g.a
    # an ideal's HNF content divides both basis entries
    assert aa % cy == 0 and tx % cy == 0
    a3 = aa // cy
    t3 = (tx // cy) % a3
    num = t3 * t3 + p
    assert num % a3 == 0
    return QForm(a3, -2 * t3, num // a3).reduced()


@dataclass(frozen=True)
class Div8Chain:
    """The 2 | h, 4 | h, and three-route 8 | h answers for one prime."""

    div2: bool
    div4: bool
    div8_forms: bool
    div8_2adic: bool
    div8_decomp: bool


def divisibility_chain(p: int) -> Div8Chain:
    """Evaluate the 2, 4, 8 divisibility criteria for h(-4p).

    2 | h iff p = 1 mod 4; 4 | h iff p = 1 mod 8; 8 | h three ways:
    p = x^2 + 32 y^2, the (1 + i | p) residue test, and a + b = +-1
    mod 8 on the two-square witness.  The three must agree.
    """
    if not is_prime(p) or p % 4 != 1:
        raise Refusal(f"need a prime = 1 mod 4, got {p}")
    div4 = p % 8 == 1
    w = decompose_two_squares(p)
    return Div8Chain(
        div2=p % 4 == 1,
        div4=div4,
        div8_forms=represent_x2_32y2(p) is not None,
        div8_2adic=div4 and one_plus_i_is_square(p),
        div8_decomp=(w.a + w.b) % 8 in (1, 7),
    )
