"""Z_2[i] arithmetic on exact Gaussian integers, exhaustive where the ring is small."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixteenrank import (
    GaussInt,
    PrimeWitness,
    RankCase,
    Refusal,
    class_number_enum,
    congruent,
    decompose_two_squares,
    hensel_sqrt,
    is_square_unit,
    m_valuation,
    normalize_pi,
    omega0,
    sixteen_divides,
    sixteen_rank_case,
)
from sixteenrank.cli import form_witnesses
from sixteenrank.gauss2adic import _MAX_PRECISION, m_power


def v2(n: int) -> int:
    assert n != 0
    return (n & -n).bit_length() - 1


def test_gauss_int_ring_ops():
    z = GaussInt(3, -4)
    w = GaussInt(-1, 2)
    assert z + w == GaussInt(2, -2)
    assert z - w == GaussInt(4, -6)
    assert z * w == GaussInt(5, 10)  # (3-4i)(-1+2i) = -3+6i+4i+8 = 5+10i
    assert -z == GaussInt(-3, 4)
    assert z.conj() == GaussInt(3, 4)
    assert z.norm() == 25


def test_exact_m_valuation_is_half_norm_valuation():
    rng = random.Random(7)
    for _ in range(500):
        z = GaussInt(rng.randrange(-999, 1000), rng.randrange(-999, 1000))
        if z.norm() == 0:
            continue
        assert m_valuation(z) == v2(z.norm())
    assert m_valuation(GaussInt(0, 0)) == float("inf")
    assert m_valuation(GaussInt(1, 1)) == 1
    assert m_valuation(GaussInt(2, 0)) == 2
    assert m_valuation(GaussInt(1, 3)) == 1  # norm 10
    assert m_valuation(GaussInt(2, 2)) == 3  # norm 8


def test_truncation_respects_precision():
    # congruence mod M^prec reads its arguments mod M^prec: a shift by
    # m^prec is invisible, one by m^(prec-1) is not
    rng = random.Random(11)
    for prec in (5, 6, 7, 9, 12):
        z = GaussInt(rng.randrange(1 << 10), rng.randrange(1 << 10))
        for _ in range(50):
            w = GaussInt(rng.randrange(-50, 50), rng.randrange(-50, 50))
            assert congruent(z, z + m_power(prec) * w, prec)
        assert not congruent(z, z + m_power(prec - 1), prec)


def test_m_power_valuations():
    # the closed form against k multiplications by m = 1 + i
    z = GaussInt(1, 0)
    for k in range(2 * _MAX_PRECISION + 1):
        assert m_power(k) == z
        assert m_valuation(m_power(k)) == k
        z = z * GaussInt(1, 1)
    for k in (-1, 2 * _MAX_PRECISION + 1):
        with pytest.raises(Refusal):
            m_power(k)


def test_square_units_exhaustive_mod_m8():
    # M^8 = 16 Z[i], so the residues mod M^8 are the 256 coordinate pairs
    # mod 16, 128 of them units.  A unit residue is a square of some
    # residue iff it lies in the +-1 mod m^5 classes; there are exactly 16
    # such, forming the index-8 subgroup of squares.
    residues = [GaussInt(x, y) for x in range(16) for y in range(16)]
    units = [z for z in residues if m_valuation(z) == 0]
    assert len(units) == 128
    squares = set()
    for s in residues:
        sq = s * s
        if m_valuation(sq) == 0:
            squares.add((sq.re % 16, sq.im % 16))
    flagged = [z for z in units if is_square_unit(z)]
    assert {(z.re, z.im) for z in flagged} == squares
    assert len(flagged) == 16


def test_square_test_rejects_nonunits():
    for z in (GaussInt(1, 1), GaussInt(2, 0), GaussInt(0, 0)):
        with pytest.raises(Refusal, match="units only"):
            is_square_unit(z)


def random_pi_one_mod_m5(rng):
    # 1 + m^5 * (x + y i) with m^5 = -4 - 4i
    x = rng.randrange(1 << 20)
    y = rng.randrange(1 << 20)
    m5 = GaussInt(-4, -4)
    return GaussInt(1, 0) + m5 * GaussInt(x, y)


def test_hensel_sqrt_squares_back():
    rng = random.Random(17)
    for _ in range(120):
        prec = rng.randrange(3, _MAX_PRECISION + 1)
        pi = random_pi_one_mod_m5(rng)
        s = hensel_sqrt(pi, prec)
        assert m_valuation(s * s - pi) >= prec
        assert m_valuation(s - GaussInt(1, 0)) >= 3


def four_way_sqrt(pi, precision):
    """Reference lift: try the four corrections of two digits at a time."""
    s = GaussInt(1, 0)
    k = 5
    while k < precision:
        goal = min(k + 2, precision)
        e1, e2 = m_power(k - 2), m_power(k - 1)
        s = next(
            cand for cand in (s, s + e1, s + e2, s + e1 + e2)
            if m_valuation(cand * cand - pi) >= goal
        )
        k = goal
    mod = 1 << (precision + 1) // 2
    return GaussInt(s.re % mod, s.im % mod)


def residue_witnesses():
    # every witness shape with 8 | h: a = 1 mod 4 in (-256, 256), c even in
    # [2, 128], a + c^2 = +-1 mod 8; p need not be prime
    return [
        PrimeWitness(p=a * a + c**4, a=a, b=c * c, c=c)
        for a in range(-255, 256, 4)
        for c in range(2, 129, 2)
        if (a + c * c) % 8 in (1, 7)
    ]


def test_hensel_sqrt_matches_four_way_search_coordinates():
    # s^2 = pi mod M^precision leaves the digits of s at m^(precision-2)
    # and m^(precision-1) free; both lifts leave them 0, so the returned
    # coordinates, not just the roots mod M^(precision-2), must agree.
    # Seeded random pi and the 4,096 residue witnesses' pi go through
    # every precision 3 .. 64, the witnesses one precision each
    rng = random.Random(23)
    cases = [
        (random_pi_one_mod_m5(rng), prec)
        for _ in range(10)
        for prec in range(3, _MAX_PRECISION + 1)
    ]
    cases += [(normalize_pi(w), 3 + i % 62) for i, w in enumerate(residue_witnesses())]
    for pi, prec in cases:
        assert hensel_sqrt(pi, prec) == four_way_sqrt(pi, prec), (pi, prec)


def test_hensel_sqrt_identity_input():
    assert hensel_sqrt(GaussInt(1, 0), 20) == GaussInt(1, 0)


def test_hensel_sqrt_rejects_bad_input():
    with pytest.raises(Refusal):
        hensel_sqrt(GaussInt(3, 0), 9)  # 3 - 1 = 2 has valuation 2 < 5
    with pytest.raises(Refusal):
        hensel_sqrt(GaussInt(1, 0), 2)


def test_squaring_shifts_unit_filtration_two_steps():
    # (1 + m^k w)^2 = 1 + 2 m^k w + m^2k w^2 and v(2) = 2, so squaring
    # lands two levels deeper whenever k >= 3
    rng = random.Random(19)
    one = GaussInt(1, 0)
    for _ in range(200):
        k = rng.randrange(3, 30)
        w = GaussInt(rng.randrange(1 << 8), rng.randrange(1 << 8))
        z = one + m_power(k) * w
        assert m_valuation(z * z - one) >= k + 2


def test_normalize_pi_examples():
    pi = normalize_pi(decompose_two_squares(41))
    assert (pi.re, pi.im) == (5, 4)
    pi = normalize_pi(decompose_two_squares(257))
    assert (pi.re, pi.im) == (1, 16)
    pi = normalize_pi(decompose_two_squares(113))
    assert (pi.re, pi.im) == (-7, 8)
    for p in (41, 257, 113, 337, 577):
        pi = normalize_pi(decompose_two_squares(p))
        assert m_valuation(pi - GaussInt(1, 0)) >= 5
        assert pi.norm() == p


def test_normalize_pi_rejections():
    with pytest.raises(Refusal, match="5 mod 8"):
        normalize_pi(decompose_two_squares(13))
    with pytest.raises(Refusal, match="8 does not divide"):
        normalize_pi(decompose_two_squares(73))  # h(-292) = 4


def test_sixteen_divides_spot_values():
    assert sixteen_divides(decompose_two_squares(257)) is True  # h = 16
    assert sixteen_divides(decompose_two_squares(41)) is False  # h = 8
    with pytest.raises(Refusal, match="not of the form"):
        sixteen_divides(decompose_two_squares(113))
    with pytest.raises(Refusal):
        sixteen_divides(decompose_two_squares(17))  # h = 4


def test_norm_identity_for_omega_factors():
    # (c(1+i) + sqrt(pi)) (c(1+i) - sqrt(pi)) = 2ic^2 - pi = -conj(pi)
    # up to a correction of valuation >= 8, since b = c^2 and c is even
    prec = 7
    for p in (41, 257, 337, 881, 1321, 3137):
        w = decompose_two_squares(p)
        if w.c is None:
            continue
        pi = normalize_pi(w)
        s = hensel_sqrt(pi, prec)
        w0 = omega0(w, s)
        w2 = GaussInt(w.c, w.c) - s
        assert m_valuation(w0 * w2 + pi.conj()) >= 7


def test_rank_case_table():
    div16 = {(1, 0), (15, 0), (3, 2), (13, 2)}
    exactly8 = {(7, 0), (9, 0), (5, 2), (11, 2)}
    for a0 in range(1, 16, 2):
        for c0 in (0, 2):
            got = sixteen_rank_case(a0, c0)
            if (a0, c0) in div16:
                assert got is RankCase.DIV16
            elif (a0, c0) in exactly8:
                assert got is RankCase.EXACTLY8
            else:
                assert got is RankCase.NOT8
            # NOT8 iff a + c^2 is not +-1 mod 8
            assert (got is RankCase.NOT8) == ((a0 + c0 * c0) % 8 not in (1, 7))


def test_rank_case_of_v2():
    expected = [RankCase.NOT8] * 3 + [RankCase.EXACTLY8] + [RankCase.DIV16] * 3
    assert [RankCase.of_v2(v) for v in range(7)] == expected
    # the class number's verdict is the congruence table's on the family
    witnesses = form_witnesses(10**5)
    assert len(witnesses) > 100
    for p, a, c in witnesses:
        assert RankCase.of_v2(class_number_enum(p).v2) is sixteen_rank_case(a, c), p


def two_adic_verdict(w, precision):
    """sixteen_divides(w) with the square root lifted to the given precision."""
    return is_square_unit(omega0(w, hensel_sqrt(normalize_pi(w), precision)))


def test_two_adic_route_matches_congruence_table_on_every_residue():
    # at precision 7 the verdict reads only (a mod 16, c mod 4) (see the
    # gauss2adic docstring), so agreement here is agreement on every prime
    witnesses = residue_witnesses()
    assert len(witnesses) == 4096
    table = [sixteen_rank_case(w.a, w.c) is RankCase.DIV16 for w in witnesses]
    assert sum(table) == 2048
    assert [sixteen_divides(w) for w in witnesses] == table
    # one digit less leaves sqrt(pi) unknown mod M^5, and half the verdicts flip
    at6 = [two_adic_verdict(w, 6) for w in witnesses]
    assert sum(x != y for x, y in zip(at6, table)) == 2048


def test_rank_case_invariances():
    import itertools

    for a, c in itertools.product((-23, -7, 1, 9, 31), (0, 2, 4, 10)):
        base = sixteen_rank_case(a, c)
        assert sixteen_rank_case(-a, c) is base
        assert sixteen_rank_case(a + 16, c) is base
        assert sixteen_rank_case(a, c + 4) is base


def test_rank_case_rejects_wrong_parity():
    with pytest.raises(Refusal):
        sixteen_rank_case(2, 2)
    with pytest.raises(Refusal):
        sixteen_rank_case(3, 3)


coords = st.integers(min_value=-(1 << 70), max_value=1 << 70)
gauss_ints = st.builds(GaussInt, coords, coords)


@settings(max_examples=300, deadline=None)
@given(gauss_ints, gauss_ints)
def test_m_valuation_is_additive(z, w):
    assert m_valuation(z * w) == m_valuation(z) + m_valuation(w)


@settings(max_examples=300, deadline=None)
@given(gauss_ints, gauss_ints)
def test_m_valuation_of_a_sum(z, w):
    vz, vw = m_valuation(z), m_valuation(w)
    assert m_valuation(z + w) >= min(vz, vw)
    if vz != vw:
        assert m_valuation(z + w) == min(vz, vw)


# the route reads its input only mod M^k: the root to precision k from pi
# mod M^k, the square test from z mod M^5
@settings(max_examples=300, deadline=None)
@given(gauss_ints, gauss_ints, st.integers(min_value=5, max_value=_MAX_PRECISION))
def test_hensel_sqrt_reads_pi_mod_m_precision(t, w, precision):
    pi = GaussInt(1, 0) + m_power(5) * t
    assert hensel_sqrt(pi + m_power(precision) * w, precision) == hensel_sqrt(pi, precision)


@settings(max_examples=300, deadline=None)
@given(gauss_ints, gauss_ints)
def test_is_square_unit_reads_z_mod_m5(z, w):
    if z.norm() % 2 == 0:
        z = z + GaussInt(1, 0)
    assert is_square_unit(z + m_power(5) * w) == is_square_unit(z)
