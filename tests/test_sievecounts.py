"""Lattice counting, local densities, and report serialization."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixteenrank import (
    CongruencePair,
    Refusal,
    canonical_pairs,
    count_primes,
    count_report,
    density_constant,
    expected_main_term,
    g_value,
    is_prime,
    kappa,
    represented_primes,
)
from sixteenrank.arith import primes_up_to, sqrt_minus_one_mod_p
from sixteenrank import sievecounts
from sixteenrank.cli import form_witnesses, render_density
from sixteenrank.sievecounts import _X_LIMIT, TRIVIAL_PAIR, prime_rows


def is_admissible(pair):
    try:
        density_constant(pair)
    except Refusal:
        return False
    return True


def brute_counts(x, pair):
    """Signed-lattice count and distinct prime set by a direct double loop."""
    lattice = 0
    primes = set()
    bound_a = math.isqrt(x)
    bound_c = math.isqrt(math.isqrt(x))
    for a in range(-bound_a, bound_a + 1):
        if a % pair.q1 != pair.a0:
            continue
        for c in range(-bound_c, bound_c + 1):
            if c % pair.q2 != pair.c0:
                continue
            n = a * a + c**4
            if n <= x and is_prime(n):
                lattice += 1
                primes.add(n)
    return lattice, primes


SAMPLE_PAIRS = (
    TRIVIAL_PAIR,
    CongruencePair(1, 16, 0, 4),
    CongruencePair(7, 16, 2, 4),
    CongruencePair(15, 16, 0, 4),
    CongruencePair(3, 8, 0, 2),
    CongruencePair(1, 2, 0, 2),
    CongruencePair(0, 2, 1, 2),
    CongruencePair(1, 2, 1, 2),  # only p = 2 lives here
    # q1 = 15: the strike of 5 takes a whole row (c = +-1 mod 5) or none of
    # it, and c = 1 mod 3 holds no -c, so rows are walked for both signs of c
    CongruencePair(2, 15, 1, 3),
)


def test_counts_match_brute_force():
    # 5 = 2^2 + 1^4 and 17 = 1^2 + 2^4 are primes q that strike their own
    # rows; at 25 = 3^2 + 2^4 and 169 = 13^2 + 0^4, X = q^2 for the largest
    # prime q = isqrt(X) that strikes.  Below X = 4 the bound is clamped up
    # to 2, so 2 = 1^2 + 1^4 strikes itself; X = 3 is the CLI's least limit,
    # and X = 4 the least X whose own bound is 2
    for pair in SAMPLE_PAIRS:
        for x in (0, 1, 2, 3, 4, 5, 17, 25, 50, 169, 20000):
            lattice, primes = brute_counts(x, pair)
            assert count_primes(x, pair, mode="lattice") == lattice, (pair, x)
            assert count_primes(x, pair, mode="distinct") == len(primes), (pair, x)
            got = represented_primes(x, pair)
            assert sorted(primes) == list(got), (pair, x)
            assert got.dtype == np.int64, (pair, x)
            assert np.all(got[1:] > got[:-1]), (pair, x)


@st.composite
def pairs(draw):
    q1 = draw(st.integers(min_value=1, max_value=60))
    q2 = draw(st.integers(min_value=1, max_value=60))
    return CongruencePair(draw(st.integers(0, q1 - 1)), q1, draw(st.integers(0, q2 - 1)), q2)


# c = 1 mod 3 holds no -c, so rows with c < 0 are walked; at X = 50000 the
# rows c = -11 and c = -14 are struck at a = 0 by 11 and by 7, primes
# q = 3 mod 4 that divide c
NEGATIVE_C_PAIR = CongruencePair(0, 1, 1, 3)


# the id "sieve" of the tests below names the branch of prime_rows at their
# X; test_prime_rows_match_is_prime_row_by_row walks the rows above 3*10^8
@pytest.mark.parametrize("x", [50000], ids=["sieve"])
def test_rows_of_negative_c_match_brute_force(x):
    lattice, primes = brute_counts(x, NEGATIVE_C_PAIR)
    assert lattice == 610
    assert count_primes(x, NEGATIVE_C_PAIR, "lattice") == lattice
    assert represented_primes(x, NEGATIVE_C_PAIR).tolist() == sorted(primes)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), pairs())
@example(10**6, TRIVIAL_PAIR)
@example(50000, NEGATIVE_C_PAIR)
@example(50000, CongruencePair(1, 2, 1, 2))  # c odd: -c is in the class
def test_prime_rows_yield_each_row_once(x, pair):
    rows = list(prime_rows(x, pair))
    both = 2 * pair.c0 % pair.q2 == 0
    cs = [c for c, _, _ in rows]
    assert len({abs(c) for c in cs}) == len(cs), cs
    assert all(c % pair.q2 == pair.c0 for c in cs), cs
    if both:
        assert all(c > 0 for c in cs), cs
    assert all(k == (2 if both else 1) for _, _, k in rows)
    assert sum(k * a.size for _, a, k in rows) == brute_counts(x, pair)[0]


@pytest.mark.parametrize("x", [10**6], ids=["sieve"])
@pytest.mark.parametrize("pair", [CongruencePair(1, 2, 0, 2), TRIVIAL_PAIR,
                                  CongruencePair(0, 2, 1, 2), CongruencePair(5, 10, 1, 3)],
                         ids=str)
def test_prime_rows_keep_both_signs_of_a(x, pair):
    # the a -> -a symmetry is not folded: in a class that holds a and -a,
    # every row holds both, so a check of that symmetry reads the walk
    assert 2 * pair.a0 % pair.q1 == 0
    rows = list(prime_rows(x, pair))
    assert sum(a.size for _, a, _ in rows) > 0
    for c, a, _ in rows:
        assert a.tolist() == (-a[::-1]).tolist(), c


def unique_row_values(x, pair):
    """The distinct primes by np.unique over every yielded row's values."""
    values = [a * a + c**4 for c, a, _ in prime_rows(x, pair)]
    if not values:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(values))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), pairs())
# 17 = 1^2 + 2^4 = 4^2 + 1^4 and 97 = 9^2 + 2^4 = 4^2 + 3^4 each lie on two
# rows of different |c|
@example(10**6, TRIVIAL_PAIR)
def test_represented_primes_match_unique_row_values(x, pair):
    got = represented_primes(x, pair)
    want = unique_row_values(x, pair)
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()


def test_represented_primes_peak_memory():
    # one value array per walked row, then one in-place sort: about 1.0 MiB,
    # against 2.0 MiB when the rows of -c are kept too
    pair = CongruencePair(1, 2, 0, 2)
    tracemalloc.start()
    try:
        got = represented_primes(10**8, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.size == 32286
    assert peak < 1.5 * 2**20, peak


def brute_witnesses(limit):
    """(p, a, c) with p = a^2 + c^4 <= limit prime, a odd > 0, c even > 0."""
    out = []
    for c in range(2, math.isqrt(math.isqrt(limit)) + 1, 2):
        for a in range(1, math.isqrt(limit - c**4) + 1, 2):
            if is_prime(a * a + c**4):
                out.append((a * a + c**4, a, c))
    return sorted(out)


# form_witnesses keeps the verify budget, 2*10^6, far below 3*10^8
@pytest.mark.parametrize("limits", [(3, 16, 17, 41, 200, 10**5)], ids=["sieve"])
def test_form_witnesses_match_brute_force(limits):
    for limit in limits:
        assert form_witnesses(limit) == brute_witnesses(limit), limit


# rows (c, q1, a) of the strike tests: a from -700 to 700 under each q1, and
# short rows (q1 = 1) of length q and q + 1 that start at a root of a prime
# q, so that q strikes them once, or twice (at index 0 and index q); the
# value at index q has no other prime factor that strikes
STRIKE_ROWS = [
    pytest.param(c, q1, np.arange(-700, 701, q1, dtype=np.int64), id=f"{c}-{q1}")
    for q1 in (1, 2, 15, 16) for c in (1, 2, 3, 5, 6, 10, 26, 65, 210, -6, -21)
] + [
    pytest.param(c, 1, np.arange(start, start + size, dtype=np.int64),
                 id=f"{c}-1-q{q}-len{size}")
    for q, c, start in ((13, 2, 136), (7, 7, 259)) for size in (q, q + 1)
]


@pytest.mark.parametrize("c, q1, a", STRIKE_ROWS)
def test_strike_marks_exactly_small_factors(c, q1, a):
    # a survivor is an n with no prime factor up to the bound, so a prime
    # n <= bound strikes itself: per prime q, exactly the rho(c^2, q) roots
    # of a^2 = -c^4 mod q go.
    # 8,660 is sqrt(X)/2 at X = 300,000,001, the least X of the Miller-Rabin
    # branch
    n = a * a + c**4
    for bound in (999, 8660):
        small = np.array(primes_up_to(bound))
        small_factor = (n[:, None] % small == 0).any(axis=1)
        want = ~small_factor
        strike = sievecounts._strike_table(bound, q1)
        got = sievecounts._strike_survivors(n, int(a[0]), c, strike)
        assert got.tolist() == want.tolist(), bound


@pytest.mark.parametrize("c, q1, a", STRIKE_ROWS)
def test_strike_at_full_bound_leaves_exactly_primes(c, q1, a):
    # struck by every prime q <= isqrt(max n), a survivor n is a prime above
    # isqrt(max n), as n == q strikes itself, or n = 1, which has no prime
    # factor
    n = a * a + c**4
    bound = math.isqrt(int(n.max()))
    want = (np.array([is_prime(v) for v in n.tolist()]) & (n > bound)) | (n == 1)
    strike = sievecounts._strike_table(bound, q1)
    got = sievecounts._strike_survivors(n, int(a[0]), c, strike)
    assert got.tolist() == want.tolist()


def test_strike_refuses_the_row_c_zero():
    # prime_rows never walks c = 0 (its n = a^2 are squares), so the strike
    # takes no such row
    a = np.arange(-700, 701, dtype=np.int64)
    with pytest.raises(Refusal):
        sievecounts._strike_survivors(a * a, int(a[0]), 0, sievecounts._strike_table(999, 1))


@st.composite
def table_moduli(draw):
    # q1 <= 10^4, often a multiple of 2 or of a small q = 1 mod 4, so that
    # rooted primes divide it and strike whole rows
    factor = draw(st.sampled_from((1, 2, 4, 5, 10, 13, 17, 65, 3 * 5 * 7)))
    return factor * draw(st.integers(min_value=1, max_value=10**4 // factor))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=3000), table_moduli())
def test_strike_table_against_slow_roots(bound, q1):
    # prime_rows clamps the bound to at least 2
    strike = sievecounts._strike_table(bound, q1)
    primes = set(primes_up_to(bound))
    whole = {q for q in primes if q1 % q == 0}
    assert strike.whole == math.prod(whole)
    rooted = strike.rooted_q.tolist()
    rootless = strike.rootless_q.tolist()
    assert rooted == sorted(q for q in primes - whole if q % 4 != 3 for _ in (1, 2))
    assert rootless == sorted(q for q in primes - whole if q % 4 == 3)
    for q, rinv, inv in zip(rooted, strike.rooted_rinv.tolist(),
                            strike.rooted_inv.tolist()):
        assert inv * q1 % q == 1
        r = 1 if q == 2 else sqrt_minus_one_mod_p(q)
        assert rinv * q1 % q in (r, q - r)
    # each q's two entries carry the two roots
    signed = strike.rooted_rinv.reshape(-1, 2)
    assert ((signed[:, 0] + signed[:, 1]) % strike.rooted_q[::2] == 0).all()
    for q, inv in zip(rootless, strike.rootless_inv.tolist()):
        assert inv * q1 % q == 1


@pytest.mark.parametrize("q1", [1, 15])
@pytest.mark.parametrize("start, c", [
    (-math.isqrt(_X_LIMIT), math.isqrt(math.isqrt(_X_LIMIT))),
    (math.isqrt(_X_LIMIT), -math.isqrt(math.isqrt(_X_LIMIT))),
])
def test_strike_holds_int64_headroom_at_the_x_limit(start, c, q1):
    # at X = _X_LIMIT the bound is sqrt(X) (10^5), |c| reaches X^(1/4) (316)
    # and |start| sqrt(X), so the products in k0 reach X; the struck indices
    # must be those that the same k0 formula gives in Python ints
    bound = math.isqrt(_X_LIMIT)
    a = np.arange(start, start + 2000 * q1, q1, dtype=np.int64)
    n = a * a + c**4
    strike = sievecounts._strike_table(bound, q1)
    # no q | q1 strikes the whole row, so every struck index comes from a k0
    assert math.gcd(start * start + c**4, strike.whole) == 1
    want = np.ones(n.size, dtype=bool)
    for q, rinv, inv in zip(strike.rooted_q.tolist(), strike.rooted_rinv.tolist(),
                            strike.rooted_inv.tolist()):
        want[(rinv * c * c - start * inv) % q :: q] = False
    for q, inv in zip(strike.rootless_q.tolist(), strike.rootless_inv.tolist()):
        if c % q == 0:
            want[-start * inv % q :: q] = False
    got = sievecounts._strike_survivors(n, start, c, strike)
    assert got.tolist() == want.tolist()


def class_rows(x, pair):
    """(c, a, k) for each row of the class with a nonempty progression of a,
    by plain loops: the c > 0 with k = 2 when the class holds -c, else every
    c with k = 1, and a the range of every a = a0 mod q1 with
    a^2 + c^4 <= x."""
    cmax = math.isqrt(math.isqrt(x))
    both = 2 * pair.c0 % pair.q2 == 0
    for c in range(1 if both else -cmax, cmax + 1):
        if c % pair.q2 == pair.c0:
            amax = math.isqrt(x - c**4)
            a = range(-amax + (pair.a0 + amax) % pair.q1, amax + 1, pair.q1)
            if a:
                yield c, a, 2 if both else 1


@st.composite
def narrow_classes(draw):
    # (x, pair): X of every size up to _X_LIMIT, as often small as large, and
    # a class of one or two rows of at most about 2,000 a each, so that
    # is_prime checks every value; q1 is often a multiple of 2, 5, 13 or
    # 3*5*7, so that the primes q | q1 strike whole rows
    k = draw(st.integers(min_value=0, max_value=_X_LIMIT.bit_length()))
    x = draw(st.integers(min_value=1 << k >> 1, max_value=min((1 << k) - 1, _X_LIMIT)))
    root = math.isqrt(x)
    cmax = math.isqrt(root)
    factor = draw(st.sampled_from((1, 2, 5, 13, 3 * 5 * 7)))
    least = -(-(2 * root + 1) // (2000 * factor))
    q1 = factor * draw(st.integers(min_value=least, max_value=2 * least + 10))
    q2 = draw(st.integers(min_value=max(1, cmax), max_value=2 * cmax + 1))
    return x, CongruencePair(draw(st.integers(0, q1 - 1)), q1, draw(st.integers(0, q2 - 1)), q2)


@settings(max_examples=50, deadline=None)
@given(narrow_classes())
# 2 = 1^2 + 1^4 strikes itself at the least bound, 2
@example((2, CongruencePair(1, 2, 1, 2)))
# 98785^2 + 2^4 = 85453 * 114197 <= 10^10: both factors lie above the bound
# sqrt(X)/2 = 50000, so no prime of the strike removes it, only is_prime
@example((10**10, CongruencePair(98785 % 105, 105, 2, 400)))
# a^2 + 1 = 17, 257, 577, 1297, 3137 and 7057 lie below the bound
# sqrt(X)/2 = 8660 and strike themselves; the flags decide them
@example((300_000_001, CongruencePair(4, 20, 1, 200)))
# the one row c = -21: 3 and 7 divide c and strike a = 0 mod 3 and mod 7
@example((10**9, CongruencePair(0, 32, 179, 200)))
# a0 = q1/2: the class holds both signs of a
@example((5 * 10**8, CongruencePair(13, 26, 2, 150)))
# the largest X of the sieve branch and the least above it; one row, c = 70,
# of weight 2
@example((300_000_000, CongruencePair(1, 32, 70, 140)))
@example((300_000_001, CongruencePair(1, 32, 70, 140)))
def test_prime_rows_match_is_prime_row_by_row(case):
    x, pair = case
    rows = list(prime_rows(x, pair))
    want = list(class_rows(x, pair))
    assert [(c, k) for c, _, k in rows] == [(c, k) for c, _, k in want]
    for (c, a, _), (_, span, _) in zip(rows, want):
        assert a.dtype == np.int64
        assert a.tolist() == [v for v in span if is_prime(v * v + c**4)], c


# 300,000,001 = 7^2 * 6,122,449 is composite, so the counts at 3*10^8, the
# largest X of the sieve branch, and at 3*10^8 + 1, where Miller-Rabin
# decides every survivor of the strike, are the same
@pytest.mark.parametrize("pair, lattice, distinct", [
    (CongruencePair(1, 16, 0, 4), 17316, 8658),
    (CongruencePair(3, 16, 2, 4), 17606, 8803),
])
def test_counts_agree_across_the_sieve_seam(pair, lattice, distinct):
    assert 7**2 * 6122449 == 300_000_001
    for x in (300_000_000, 300_000_001):
        assert count_primes(x, pair, "lattice") == lattice, x
        assert count_primes(x, pair, "distinct") == distinct, x


def test_lattice_partition_by_parity():
    # a odd forces c even and vice versa, except a, c both odd which only
    # produces 2 = 1 + 1, contributing its four sign choices
    x = 30000
    total = count_primes(x, TRIVIAL_PAIR, mode="lattice")
    odd_a = count_primes(x, CongruencePair(1, 2, 0, 2), mode="lattice")
    even_a = count_primes(x, CongruencePair(0, 2, 1, 2), mode="lattice")
    both_odd = count_primes(x, CongruencePair(1, 2, 1, 2), mode="lattice")
    assert both_odd == 4
    assert total == odd_a + even_a + both_odd


def test_canonical_pairs_shape():
    pairs = canonical_pairs()
    assert len(pairs) == 16
    assert len(set(pairs)) == 16
    for pair in pairs:
        assert pair.q1 == 16 and pair.q2 == 4
        assert pair.a0 % 2 == 1
        assert pair.c0 in (0, 2)
        assert is_admissible(pair)
    # deterministic ordering: ascending a0, then c0
    assert [(q.a0, q.c0) for q in pairs[:4]] == [(1, 0), (1, 2), (3, 0), (3, 2)]


def test_admissibility():
    assert is_admissible(TRIVIAL_PAIR)
    assert is_admissible(CongruencePair(1, 2, 0, 2))
    assert not is_admissible(CongruencePair(0, 2, 0, 2))  # always even
    assert not is_admissible(CongruencePair(1, 2, 1, 2))  # 1 + 1 = 2
    assert not is_admissible(CongruencePair(0, 1, 1, 2))  # odd a lifts collide
    assert not is_admissible(CongruencePair(0, 5, 0, 5))  # 25 divides


def brute_violation(pair):
    """First lift (a1, c1) mod q = lcm(q1, q2), a1 outer and c1 inner, with
    gcd(a1^2 + c1^4, q) > 1, by walking every lift."""
    q = math.lcm(pair.q1, pair.q2)
    for a1 in range(pair.a0, q, pair.q1):
        for c1 in range(pair.c0, q, pair.q2):
            if math.gcd(a1 * a1 + c1**4, q) != 1:
                return a1, c1, q
    return None


@st.composite
def pairs_up_to_60(draw):
    q1 = draw(st.integers(min_value=1, max_value=60))
    q2 = draw(st.integers(min_value=1, max_value=60))
    a0 = draw(st.integers(min_value=0, max_value=q1 - 1))
    c0 = draw(st.integers(min_value=0, max_value=q2 - 1))
    return CongruencePair(a0, q1, c0, q2)


@settings(max_examples=300, deadline=None)
@given(pairs_up_to_60())
# the first lift is at j = 1: 0^2 + 16^4 = 16 mod 30
@example(CongruencePair(0, 2, 1, 15))
# the first lift is at i = 1: 1^2 + 1^4 = 2 mod 30
@example(CongruencePair(0, 1, 1, 30))
# ell = 3 offers i = 2 and ell = 5 offers i = 1, so the least over every
# prime wins: 5^2 + 0^4 = 25 mod 60
@example(CongruencePair(1, 4, 0, 30))
def test_admissibility_matches_walk_of_every_lift(pair):
    violation = brute_violation(pair)
    assert is_admissible(pair) == (violation is None)
    if violation is None:
        assert density_constant(pair) > 0
    else:
        a1, c1, q = violation
        want = (f"pair is not admissible: {a1}^2 + {c1}^4 = "
                f"{(a1 * a1 + c1**4) % q} mod {q} is not invertible")
        with pytest.raises(Refusal) as err:
            density_constant(pair)
        assert str(err.value) == want


def test_admissibility_of_the_largest_moduli_returns():
    # q = lcm(9933, 8303) = 3 * 7 * 11 * 43 * 19^2 * 23 has about 8.2 * 10^7
    # lifts; the check goes prime by prime
    pair = CongruencePair(1, 9933, 1, 8303)
    want = Fraction(1, 9933 * 8303)
    for ell in (3, 7, 11, 43, 19, 23):
        want /= 1 - g_value(ell)
    assert density_constant(pair) == want


def test_kappa_against_quadrature():
    from scipy.integrate import quad  # the oracle; the package needs no scipy

    value, err = quad(lambda t: math.sqrt(1.0 - t**4), 0.0, 1.0,
                      epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    assert abs(kappa() - value) <= 4 * math.ulp(value)


def test_kappa_against_gamma_closed_form():
    # Beta-integral evaluation of int_0^1 (1-t^4)^(1/2) dt
    closed = math.gamma(0.25) * math.gamma(1.5) / (4 * math.gamma(1.75))
    assert abs(kappa() - closed) <= 4 * math.ulp(closed)
    assert abs(kappa() - 0.874) < 5e-4


def test_g_values_by_hand():
    assert g_value(2) == Fraction(1, 2)
    assert g_value(3) == Fraction(1, 9)  # (1 - 2/3)/3
    assert g_value(5) == Fraction(9, 25)  # (1 + 4/5)/5
    assert g_value(7) == Fraction(1, 49)
    assert g_value(13) == Fraction(25, 169)
    with pytest.raises(Refusal):
        g_value(6)


def test_density_constants():
    for pair in canonical_pairs():
        assert density_constant(pair) == Fraction(1, 32)
    assert density_constant(TRIVIAL_PAIR) == 1
    assert density_constant(CongruencePair(1, 2, 0, 2)) == Fraction(1, 2)
    assert density_constant(CongruencePair(0, 2, 1, 2)) == Fraction(1, 2)
    # all 32 admissible classes mod (16, 4) tile the full lattice
    total = Fraction(0)
    for a0 in range(16):
        for c0 in range(4):
            pair = CongruencePair(a0, 16, c0, 4)
            if is_admissible(pair):
                total += density_constant(pair)
    assert total == 1


def test_density_refuses_inadmissible_with_residue():
    with pytest.raises(Refusal, match="not invertible"):
        density_constant(CongruencePair(0, 2, 0, 2))
    with pytest.raises(Refusal, match="not invertible"):
        expected_main_term(100, CongruencePair(1, 2, 1, 2))


def test_expected_main_term_formula():
    x = 10**5
    pair = CongruencePair(1, 16, 0, 4)
    want = (1 / 32) * (16 * kappa() / math.pi) * x**0.75 / math.log(x)
    assert abs(expected_main_term(x, pair) - want) < 1e-9
    with pytest.raises(Refusal):
        expected_main_term(1, pair)


def test_pair_validation():
    with pytest.raises(ValueError):
        CongruencePair(1, 0, 0, 4)
    with pytest.raises(ValueError):
        CongruencePair(16, 16, 0, 4)
    with pytest.raises(ValueError):
        CongruencePair(1, 16, -1, 4)


def test_count_primes_guards():
    with pytest.raises(Refusal):
        count_primes(100, TRIVIAL_PAIR, mode="weird")
    with pytest.raises(Refusal):
        count_primes(10**10 + 1, TRIVIAL_PAIR)
    with pytest.raises(Refusal):
        count_primes(-1, TRIVIAL_PAIR)
    # the walk itself keeps the X budget, whoever calls it
    for x in (10**30, _X_LIMIT + 1, -1):
        with pytest.raises(Refusal, match="X must lie"):
            next(prime_rows(x, TRIVIAL_PAIR))


GOLDEN_CSV = (
    "a0,q1,c0,q2,X,lattice_count,distinct_count,expected,ratio\n"
    "1,16,0,4,20000,20,10,23.622476947814516,0.8466512654106048\n"
    "7,16,2,4,20000,30,15,23.622476947814516,1.2699768981159072\n"
)

GOLDEN_JSON = (
    '{\n  "X": 20000,\n  "rows": [\n    {\n      "a0": 1,\n      "q1": 16,\n'
    '      "c0": 0,\n      "q2": 4,\n      "X": 20000,\n'
    '      "lattice_count": 20,\n      "distinct_count": 10,\n'
    '      "expected": 23.622476947814516,\n'
    '      "ratio": 0.8466512654106048\n    },\n    {\n      "a0": 7,\n'
    '      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n      "X": 20000,\n'
    '      "lattice_count": 30,\n      "distinct_count": 15,\n'
    '      "expected": 23.622476947814516,\n'
    '      "ratio": 1.2699768981159072\n    }\n  ]\n}\n'
)


def report_20000():
    return count_report(
        20000, pairs=[CongruencePair(1, 16, 0, 4), CongruencePair(7, 16, 2, 4)]
    )


def test_report_csv_bytes_are_stable():
    assert render_density(report_20000(), "csv") == GOLDEN_CSV


def test_report_json_bytes_are_stable():
    assert render_density(report_20000(), "json") == GOLDEN_JSON


def test_report_json_structure():
    doc = json.loads(render_density(report_20000(), "json"))
    assert doc["X"] == 20000
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]
    assert isinstance(row["expected"], float)
    lattice, primes = brute_counts(20000, CongruencePair(1, 16, 0, 4))
    assert row["lattice_count"] == lattice
    assert row["distinct_count"] == len(primes)


def test_report_ratio_modes():
    lat = count_report(20000, pairs=[CongruencePair(1, 16, 0, 4)]).rows[0]
    assert lat.ratio == lat.lattice_count / lat.expected


def test_default_report_covers_canonical_classes():
    rep = count_report(10**6)
    assert tuple(r.pair for r in rep.rows) == canonical_pairs()
    # each prime of a canonical class is the two lattice points (a, c), (a, -c)
    assert all(r.lattice_count == 2 * r.distinct_count > 0 for r in rep.rows)
