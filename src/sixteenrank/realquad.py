"""Fundamental units of Q(sqrt(p)) and their congruence predictions.

The fundamental unit T + U sqrt(p) comes from the continued fraction of
sqrt(p), in exact integer arithmetic.  For prime p = 1 mod 4 the period
is odd and the unit has norm -1; for p = 1 mod 8 both T and U are
integers (t^2 - p u^2 = +-4 with t, u odd is impossible mod 8, so the
half-integer case never occurs).

williams_check tests the classical congruence h = T + p - 1 mod 16,
valid whenever 8 | h.  predict_unit_congruences turns the residues of
(a, c) with p = a^2 + c^4 into the forced values of T mod 16 and
U mod 8 (up to sign).  With c even, p = a^2 mod 16, so the T column is
Williams' congruence read on residues, and a finite check over (a mod 16,
c mod 4) proves it for every prime of the family.  U mod 8 does not
follow from the congruence; only computed units check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import is_prime
from .errors import Refusal
from .gauss2adic import RankCase, sixteen_rank_case

_UNIT_LIMIT = 10**7


@dataclass(frozen=True)
class PellUnit:
    """Fundamental unit t + u sqrt(p) with t, u > 0 and t^2 - p u^2 = norm."""

    p: int
    t: int
    u: int
    norm: int

    def __post_init__(self):
        if self.norm not in (-1, 1):
            raise ValueError(f"unit norm must be +-1, got {self.norm}")
        if self.t <= 0 or self.u <= 0:
            raise ValueError("unit must be normalized with t, u > 0")
        if self.t * self.t - self.p * self.u * self.u != self.norm:
            raise ValueError(f"t^2 - p u^2 != norm for {self}")


def fundamental_unit(p: int) -> PellUnit:
    """Fundamental unit of Q(sqrt(p)) for prime p = 1 mod 8.

    Runs the continued fraction of sqrt(p); the convergent just before
    the period closes (partial quotient 2*a0) gives the least solution
    of t^2 - p u^2 = -1.
    """
    if not is_prime(p) or p % 8 != 1:
        raise Refusal(f"need a prime = 1 mod 8, got {p}")
    if p > _UNIT_LIMIT:
        raise Refusal(f"unit budget is p <= {_UNIT_LIMIT}, got {p}")
    a0 = math.isqrt(p)
    m, d, a = 0, 1, a0
    h_prev, h_cur = 1, a0
    k_prev, k_cur = 0, 1
    while True:
        m = d * a - m
        d = (p - m * m) // d
        a = (a0 + m) // d
        if a == 2 * a0:
            break
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
    t, u = h_cur, k_cur
    norm = t * t - p * u * u
    assert norm == -1, f"prime p = 1 mod 4 must give a norm -1 unit, got {norm}"
    return PellUnit(p=p, t=t, u=u, norm=norm)


def williams_check(p: int, h: int, unit: PellUnit) -> bool:
    """Whether h = T + p - 1 mod 16 (requires 8 | h)."""
    if h % 8 != 0:
        raise Refusal(f"the congruence needs 8 | h, got h = {h}")
    if unit.p != p:
        raise Refusal(f"unit belongs to p = {unit.p}, not {p}")
    return (unit.t + p - 1 - h) % 16 == 0


@dataclass(frozen=True)
class UnitCongruences:
    """Forced residues: T mod 16 and |U| mod 8 in the given two-element set."""

    t_mod_16: int
    u_mod_8: frozenset[int]


def predict_unit_congruences(a: int, c: int) -> UnitCongruences:
    """Unit congruences forced by (a mod 16, c mod 4) for p = a^2 + c^4.

        a = +-1 mod 16, c = 0 mod 4  ->  T = 0 mod 16, U = +-1 mod 8
        a = +-3 mod 16, c = 2 mod 4  ->  T = 8 mod 16, U = +-5 mod 8
        a = +-7 mod 16, c = 0 mod 4  ->  T = 8 mod 16, U = +-1 mod 8
        a = +-5 mod 16, c = 2 mod 4  ->  T = 0 mod 16, U = +-5 mod 8

    Refuses residues outside the four cases (there 8 does not divide h
    and no prediction is made).
    """
    case = sixteen_rank_case(a, c)
    if case is RankCase.NOT8:
        raise Refusal(f"no unit prediction: a = {a}, c = {c} has 8 not dividing h")
    four = c % 4 == 0
    u_set = frozenset({1, 7}) if four else frozenset({3, 5})
    t_res = 0 if (case is RankCase.DIV16) == four else 8
    return UnitCongruences(t_mod_16=t_res, u_mod_8=u_set)
