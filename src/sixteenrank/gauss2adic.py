"""2-adic arithmetic in Z_2[i] on exact Gaussian integers, and the 16 | h criterion.

Z_2[i] is local with uniformizer m = 1 + i; write M for the maximal
ideal (m).  The residue field is F_2, v(2) = 2, and for z = x + iy the
valuation is v(z) = v_2(x^2 + y^2).  Units decompose as i^k * u with
u = 1 mod M^3, and for a unit w:

    w generates an unramified square-root extension  iff  w = +-1 mod M^4,
    w is a square                                    iff  w = +-1 mod M^5.

Squaring maps the principal units 1 + M^k isomorphically onto 1 + M^(k+2)
for k >= 3, which is what makes square roots liftable digit by digit.

Elements are exact Gaussian integers, which are dense in Z_2[i]; a
result computed at precision K is claimed mod M^K only.

The headline predicate: for a prime p = a^2 + c^4 (c even) with witness
normalized so pi = a + c^2 i = 1 mod M^5, the class number h of the
imaginary quadratic field of discriminant -4p satisfies 8 | h, and

    16 | h  iff  c(1 + i) + sqrt(pi) is a square unit in Z_2[i],

where sqrt(pi) is the root that is = 1 mod M^3.  The same verdict is
forced by congruences on (a mod 16, c mod 4) alone; sixteen_rank_case
tabulates them.

Why a finite check proves the two routes agree.  The square test reads
omega0 mod M^5 only.  Write c = 2c'; then c(1 + i) = -i c' m^3, fixed
mod M^5 by c' mod 2, i.e. by c mod 4.  Squaring maps 1 + M^k onto
1 + M^(k+2), so sqrt(pi) mod M^5 is fixed by pi mod M^7; that is why
sixteen_divides lifts to precision 7 (at 6 the root is known only mod
M^4).  Since 16 Z[i] = M^8, pi mod M^7 is fixed by its coordinates a and
c^2 mod 16, with c^2 mod 16 fixed by c mod 4.  So the 2-adic
verdict is a function of (a mod 16, c mod 4), and checking it against
the table on one witness per residue pair covers every prime.  The
witnesses have a = 1 mod 4 and c > 0, as decompose_two_squares builds
them; this loses nothing, since the table is invariant under a -> -a
and c -> -c, and {1, 5, 9, 13} with its negatives is every odd residue
mod 16.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .arith import PrimeWitness, _v2
from .errors import Refusal

_MAX_PRECISION = 64


@dataclass(frozen=True)
class GaussInt:
    """Exact Gaussian integer re + im*i."""

    re: int
    im: int

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im


def m_valuation(z: GaussInt) -> int | float:
    """m-adic valuation v(z) = v_2(N(z)) of a Gaussian integer (inf for 0)."""
    n = z.norm()
    return math.inf if n == 0 else _v2(n)


def m_power(k: int) -> GaussInt:
    """m^k = (1 + i)^k, as (2i)^(k//2) * (1 + i)^(k%2)."""
    if not 0 <= k <= 2 * _MAX_PRECISION:
        raise Refusal(f"m_power needs 0 <= k <= {2 * _MAX_PRECISION}, got {k}")
    half = k // 2
    re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[half % 4]
    z = GaussInt(re << half, im << half)
    return z * GaussInt(1, 1) if k % 2 else z


def congruent(z1: GaussInt, z2: GaussInt, k: int) -> bool:
    """Whether z1 = z2 mod M^k."""
    return m_valuation(z1 - z2) >= k


def is_square_unit(z: GaussInt) -> bool:
    """Whether the unit z is a square in Z_2[i] (test: z = +-1 mod M^5)."""
    if z.norm() % 2 == 0:
        raise Refusal("square test applies to units only")
    one = GaussInt(1, 0)
    return congruent(z, one, 5) or congruent(z, -one, 5)


def normalize_pi(w: PrimeWitness) -> GaussInt:
    """The Gaussian prime pi = a + bi over w, refused unless pi = 1 mod M^5.

    The witness has a = 1 mod 4, so once b = 0 mod 4 the sum a + b is 1 or
    5 mod 8, and pi = 1 mod M^5 exactly when a + b = 1 mod 8, the
    congruence equivalent to 8 | h.
    """
    if w.b % 4 != 0:
        raise Refusal(f"p = {w.p} is 5 mod 8; the even part b = {w.b} is not 0 mod 4")
    r = (w.a + w.b) % 8
    if r != 1:
        raise Refusal(f"a + b = {r} mod 8 for p = {w.p}: 8 does not divide h")
    pi = GaussInt(w.a, w.b)
    assert m_valuation(pi - GaussInt(1, 0)) >= 5
    return pi


def hensel_sqrt(pi: GaussInt, precision: int) -> GaussInt:
    """The square root of pi that is = 1 mod M^3, to the given precision.

    pi must be = 1 mod M^5 (then it is a square and the two roots are
    +-s with s = 1 mod M^3; -s = -1 mod M^3 is excluded since v(2) = 2).
    The lift fixes one digit per step: starting from s = 1, which already
    satisfies s^2 = pi mod M^5, whenever s^2 - pi has valuation exactly k
    (5 <= k < precision) it adds m^(k-2).  That works because 2 s m^(k-2)
    has valuation exactly k, the residue field is F_2, and m^(2k-4) lies
    in M^(k+1) once k >= 5.  So s = 1 + sum of e_j m^j with e_j in {0, 1}
    and 3 <= j <= precision - 3, and s^2 = pi mod M^precision fixes s mod
    M^(precision-2), hence every e_j: the coordinates returned are those
    of that one root, however the digits are found.  They are reduced mod
    2^J, J = ceil(precision/2); 2^J Z[i] lies in M^precision, so the
    reduced root still squares to pi mod M^precision.
    """
    if not 3 <= precision <= _MAX_PRECISION:
        raise Refusal(f"precision must lie in [3, {_MAX_PRECISION}], got {precision}")
    one = GaussInt(1, 0)
    if m_valuation(pi - one) < 5:
        raise Refusal(f"hensel_sqrt needs pi = 1 mod M^5, got {pi}")
    s = one
    for k in range(5, precision):
        if m_valuation(s * s - pi) == k:
            s = s + m_power(k - 2)
    assert m_valuation(s * s - pi) >= precision
    mod = 1 << (precision + 1) // 2
    return GaussInt(s.re % mod, s.im % mod)


def omega0(w: PrimeWitness, sqrt_pi: GaussInt) -> GaussInt:
    """c(1 + i) + sqrt(pi), the unit whose squareness decides 16 | h."""
    if w.c is None:
        raise Refusal(f"p = {w.p} is not of the form a^2 + c^4 (b is not a square)")
    return GaussInt(w.c, w.c) + sqrt_pi


def sixteen_divides(w: PrimeWitness) -> bool:
    """Whether 16 | h for the field of discriminant -4p, p = a^2 + c^4.

    Requires 8 | h (a + b = 1 mod 8) and c present; refuses otherwise.
    """
    s = hensel_sqrt(normalize_pi(w), 7)
    return is_square_unit(omega0(w, s))  # omega0 refuses a missing c


class RankCase(str, enum.Enum):
    """A 16-rank verdict: of the congruence criterion on (a mod 16, c mod 4),
    or of v2(h) through of_v2."""

    DIV16 = "DIV16"        # 16 | h
    EXACTLY8 = "EXACTLY8"  # 8 | h, 16 does not divide h
    NOT8 = "NOT8"          # 8 does not divide h

    @classmethod
    def of_v2(cls, v2: int) -> "RankCase":
        """The verdict that v2(h) gives."""
        return cls.DIV16 if v2 >= 4 else cls.EXACTLY8 if v2 == 3 else cls.NOT8


def sixteen_rank_case(a: int, c: int) -> RankCase:
    """Classify a prime p = a^2 + c^4 (a odd, c even) by congruences.

        a = +-1 mod 16, c = 0 mod 4  ->  DIV16
        a = +-3 mod 16, c = 2 mod 4  ->  DIV16
        a = +-7 mod 16, c = 0 mod 4  ->  EXACTLY8
        a = +-5 mod 16, c = 2 mod 4  ->  EXACTLY8

    All other residues have a + c^2 != +-1 mod 8, i.e. 8 does not
    divide h.  Callers are responsible for p = a^2 + c^4 being prime.
    """
    if a % 2 == 0:
        raise Refusal(f"a must be odd, got {a}")
    if c % 2:
        raise Refusal(f"c must be even, got {c}")
    fold = min(a % 16, (-a) % 16)
    if c % 4 == 0:
        if fold == 1:
            return RankCase.DIV16
        if fold == 7:
            return RankCase.EXACTLY8
    else:
        if fold == 3:
            return RankCase.DIV16
        if fold == 5:
            return RankCase.EXACTLY8
    return RankCase.NOT8
