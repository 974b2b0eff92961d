"""Integer primitive tests against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixteenrank import (
    PrimeWitness,
    Refusal,
    decompose_two_squares,
    is_prime,
    primes_up_to,
    represent_x2_32y2,
    sqrt_minus_one_mod_p,
)
from sixteenrank.arith import (
    _BLOCK,
    _MR_ROWS,
    _SMALL_PRODUCT,
    _powmod,
    _runs,
    odd_prime_flags,
)


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def test_is_prime_matches_trial_division():
    for n in range(20000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_matches_the_sieve():
    # the sieve is an independent oracle for every n the one-base row decides
    n = 341531
    assert _MR_ROWS[0][0] == n
    expected = np.zeros(n, dtype=bool)
    expected[1::2] = odd_prime_flags(n - 1)
    expected[2] = True
    got = np.array([is_prime(k) for k in range(n)])
    assert np.flatnonzero(got != expected).tolist() == []


def test_is_prime_strong_pseudoprime():
    # smallest composite passing bases 2, 3, 5, 7 simultaneously
    n = 3215031751
    assert n == 151 * 751 * 28351
    assert not is_prime(n)


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_k, the smallest strong pseudoprime to the first k bases (Jaeschke,
# Math. Comp. 61, 1993; OEIS A014233), with its factors
PSI = {
    2: (1373653, (829, 1657)),
    3: (25326001, (2251, 11251)),
    4: (3215031751, (151, 751, 28351)),
    5: (2152302898747, (6763, 10627, 29947)),
    6: (3474749660383, (1303, 16927, 157543)),
    7: (341550071728321, (10670053, 32010157)),
    8: (341550071728321, (10670053, 32010157)),
    9: (3825123056546413051, (149491, 747451, 34233211)),
}


# Jaeschke's rows beyond the first k bases: each limit is the smallest
# strong pseudoprime to the row's bases, with its factors
JAESCHKE = {
    (2, 7, 61): (4759123141, (48781, 97561)),
    (2, 13, 23, 1662803): (1122004669633, (611557, 1834669)),
}

# Sinclair's one- and two-base records (miller-rabin.appspot.com): each
# limit is the smallest composite that is a strong probable prime to every
# base of its row, with its factors
RECORDS = {
    (9345883071009581737,): (341531, (239, 1429)),
    (336781006125, 9639812373923155): (1050535501, (12251, 85751)),
}


def strong_probable_prime(n: int, base: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def miller_rabin_all_bases(n: int) -> bool:
    """Trial division by the 12 bases, then all 12 as witnesses."""
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    return all(strong_probable_prime(n, base) for base in MR_BASES)


@pytest.mark.parametrize("k", sorted(PSI))
def test_is_prime_rejects_psi_k(k):
    # psi_k fools the first k bases, so is_prime must run more than k on it
    n, factors = PSI[k]
    assert n == math.prod(factors)
    assert all(strong_probable_prime(n, base) for base in MR_BASES[:k])
    assert not is_prime(n)


@pytest.mark.parametrize("bases", sorted(JAESCHKE))
def test_is_prime_rejects_jaeschke_row_limits(bases):
    # the limit fools its row's bases, so is_prime must take the next row there
    n, factors = JAESCHKE[bases]
    assert n == math.prod(factors)
    assert all(strong_probable_prime(n, base) for base in bases)
    assert (n, bases) in _MR_ROWS
    assert not is_prime(n)


@pytest.mark.parametrize("bases", sorted(RECORDS), ids=lambda bases: str(RECORDS[bases][0]))
def test_is_prime_rejects_record_row_limits(bases):
    # the limit fools its row's bases, so is_prime must take the next row there
    n, factors = RECORDS[bases]
    assert n == math.prod(factors)
    assert all(strong_probable_prime(n, base) for base in bases)
    assert (n, bases) in _MR_ROWS
    assert not is_prime(n)


def divisors(n: int) -> list[int]:
    """Every divisor of n, for n whose prime factors are all below 3 * 10^5
    except perhaps the largest."""
    factors = []
    for q in primes_up_to(3 * 10**5):
        while n % q == 0:
            factors.append(q)
            n //= q
    if n > 1:
        assert miller_rabin_all_bases(n), n
        factors.append(n)
    found = {1}
    for q in factors:
        found |= {d * q for d in found}
    return sorted(found)


def test_base_table_rows():
    limits = [limit for limit, _ in _MR_ROWS]
    assert limits == sorted(set(limits)) and limits[-1] == 2**64
    # is_prime skips a base that is 0 mod n, so every n past trial division
    # that divides a base must come out right; the n a row decides are at
    # least the previous limit (41 for the first row), and for four of
    # them a base of their own row is skipped
    skipped = set()
    for lower, (limit, bases) in zip([41, *limits], _MR_ROWS):
        for base in bases:
            for n in divisors(base):
                if n >= 41 and math.gcd(n, _SMALL_PRODUCT) == 1:
                    assert is_prime(n) == miller_rabin_all_bases(n), n
                    if lower <= n < limit:
                        skipped.add(n)
    # the primes 47, 98207 and 6855593, and 898082683 = 131 * 6855593
    assert skipped == {47, 98207, 6855593, 898082683}


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**64 - 1),
        st.integers(0, 10**9),
        st.sampled_from(
            [n for n, _ in (*PSI.values(), *JAESCHKE.values(), *RECORDS.values())]
        ).flatmap(lambda n: st.integers(n - 2000, n + 2000)),
    )
)
def test_is_prime_matches_all_bases(n):
    assert is_prime(n) == miller_rabin_all_bases(n)


def sieved_composites(lo: int, hi: int) -> np.ndarray:
    """The odd composites in [lo, hi) with no prime factor up to 37, as
    int64, by striking [lo, hi) with every prime up to sqrt(hi)."""
    composite = np.zeros(hi - lo, dtype=bool)
    for q in primes_up_to(math.isqrt(hi - 1)):
        start = max(q * q, -(-lo // q) * q)
        composite[start - lo :: q] = True
    n = np.arange(lo | 1, hi, 2, dtype=np.int64)
    return n[composite[n - lo] & (np.gcd(n, _SMALL_PRODUCT) == 1)]


def strong_probable_primes(n: np.ndarray, base: int) -> np.ndarray:
    """strong_probable_prime(n, base) for each odd 3 <= n < 2^31 of the
    array, with a base 0 mod n passed, as is_prime skips it."""
    a = base % n
    m = n - 1
    r = np.log2(m & -m).astype(np.int64)  # m & -m is a power of two
    x = _powmod(a, m >> r, n)
    passed = (a == 0) | (x == 1) | (x == m)
    for k in range(1, int(r.max(initial=0))):
        x = x * x % n
        passed |= (x == m) & (k < r)
    return passed


def two_base_pseudoprimes(lo: int, hi: int) -> list[int]:
    """The n of sieved_composites(lo, hi) that pass both bases of the
    two-base row, so that is_prime would accept them."""
    n = sieved_composites(lo, hi)
    for base in _MR_ROWS[1][1]:
        n = n[strong_probable_primes(n, base)]
    return n.tolist()


def test_strong_probable_primes_match_one_at_a_time():
    n = np.arange(41, 20001, 2, dtype=np.int64)
    n = np.concatenate([n, n + 10**9])
    for base in (2, 61, *_MR_ROWS[1][1]):
        expected = [base % k == 0 or strong_probable_prime(k, base) for k in n.tolist()]
        assert strong_probable_primes(n, base).tolist() == expected, base


def test_two_base_row_windows():
    # inside the row nothing passes both bases; at its limit, the first
    # composite that does, and nothing else, is found
    assert two_base_pseudoprimes(10**9 - (1 << 21), 10**9) == []
    limit = _MR_ROWS[1][0]
    assert two_base_pseudoprimes(limit + 1 - (1 << 21), limit + 1) == [limit]


def test_is_prime_large_mersenne():
    # cross-checked by the Lucas-Lehmer recurrence, an unrelated algorithm
    def lucas_lehmer(e):
        m = 2**e - 1
        s = 4
        for _ in range(e - 2):
            s = (s * s - 2) % m
        return s == 0

    assert lucas_lehmer(61)
    assert is_prime(2**61 - 1)
    # 127 = 2^7 - 1 divides 2^49 - 1 since 7 | 49
    assert (2**49 - 1) % 127 == 0
    assert not is_prime(2**49 - 1)


def test_is_prime_refuses_past_64_bits():
    with pytest.raises(Refusal):
        is_prime(1 << 64)


def test_primes_up_to_matches_trial_division():
    expected = tuple(n for n in range(5001) if trial_division_prime(n))
    assert primes_up_to(5000) == expected
    assert primes_up_to(13)[-1] == 13  # inclusive endpoint
    assert primes_up_to(1) == ()


def test_odd_prime_flags_indexing():
    flags = odd_prime_flags(10**4)
    for n in range(1, 10**4, 2):
        assert bool(flags[n // 2]) == trial_division_prime(n), n
    with pytest.raises(ValueError):
        flags[0] = 1  # shared through the cache, so read-only


def test_one_sieve_every_small_limit():
    for limit in range(1, 300):
        flags = odd_prime_flags(limit)
        assert len(flags) == (limit + 1) // 2, limit
        for i, flag in enumerate(flags.tolist()):
            assert bool(flag) == trial_division_prime(2 * i + 1), (limit, 2 * i + 1)
        expected = tuple(n for n in range(limit + 1) if trial_division_prime(n))
        assert primes_up_to(limit) == expected, limit


def test_sqrt_minus_one_examples():
    assert sqrt_minus_one_mod_p(5) == 2
    assert sqrt_minus_one_mod_p(13) == 5
    assert sqrt_minus_one_mod_p(41) == 9


def test_sqrt_minus_one_property():
    for p in primes_up_to(3000):
        if p % 4 != 1:
            continue
        r = sqrt_minus_one_mod_p(p)
        assert 0 < r < p / 2
        assert r * r % p == p - 1


def test_sqrt_minus_one_matches_every_d_search():
    # trying every d >= 2 finds the same least non-residue, so the same root
    for p in primes_up_to(10**5):
        if p % 4 != 1:
            continue
        d = 2
        while pow(d, (p - 1) // 2, p) != p - 1:
            d += 1
        r = pow(d, (p - 1) // 4, p)
        assert sqrt_minus_one_mod_p(p) == min(r, p - r), p


def test_sqrt_minus_one_rejects():
    with pytest.raises(Refusal):
        sqrt_minus_one_mod_p(7)
    with pytest.raises(Refusal):
        sqrt_minus_one_mod_p(21)


def brute_two_squares(p):
    # unique decomposition with positive odd leg, up to sign of the odd leg
    for b in range(0, math.isqrt(p) + 1, 2):
        a = math.isqrt(p - b * b)
        if a * a + b * b == p:
            return a, b
    raise AssertionError(f"no decomposition for {p}")


def test_decompose_matches_brute_force():
    for p in primes_up_to(10**4):
        if p % 4 != 1:
            continue
        w = decompose_two_squares(p)
        a, b = brute_two_squares(p)
        assert abs(w.a) == a and w.b == b
        assert w.a % 4 == 1
        assert w.a * w.a + w.b * w.b == p
        if p % 8 == 1:
            assert w.b % 4 == 0
        else:
            assert w.b % 4 == 2
            assert w.c is None
        if w.c is not None:
            assert w.c % 2 == 0 and w.c**2 == w.b


def test_decompose_examples():
    assert decompose_two_squares(41) == PrimeWitness(p=41, a=5, b=4, c=2)
    w = decompose_two_squares(113)
    assert (w.a, w.b, w.c) == (-7, 8, None)
    w = decompose_two_squares(13)
    assert (w.a, w.b, w.c) == (-3, 2, None)
    w = decompose_two_squares(257)
    assert (w.a, w.b, w.c) == (1, 16, 4)


def test_decompose_rejects():
    with pytest.raises(Refusal):
        decompose_two_squares(7)
    with pytest.raises(Refusal):
        decompose_two_squares(15)


def test_witness_validation():
    with pytest.raises(ValueError):
        PrimeWitness(p=41, a=3, b=4)  # 3 = 3 mod 4, wrong normalization
    with pytest.raises(ValueError):
        PrimeWitness(p=41, a=5, b=3)  # odd b
    with pytest.raises(ValueError):
        PrimeWitness(p=43, a=5, b=4)  # 25 + 16 != 43
    with pytest.raises(ValueError):
        PrimeWitness(p=41, a=5, b=4, c=3)  # c^2 != b and c odd


def brute_x2_32y2(p):
    best = None
    for y in range(math.isqrt(p // 32) + 1):
        x2 = p - 32 * y * y
        x = math.isqrt(x2)
        if x * x == x2:
            if best is None:
                best = (x, y)
    return best


def test_represent_x2_32y2_matches_brute_force():
    for p in primes_up_to(5000):
        assert represent_x2_32y2(p) == brute_x2_32y2(p), p


def test_represent_x2_32y2_solution_shape():
    got = represent_x2_32y2(41)
    assert got == (3, 1) and 3 * 3 + 32 == 41
    assert represent_x2_32y2(17) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 40))
def test_decompose_just_below_two_to_the_64(offset):
    # the largest prime p = 1 mod 4 at or below 2^64 - 1 - offset
    p = (1 << 64) - 1 - offset
    p -= (p - 1) % 4
    while not is_prime(p):
        p -= 4
    w = decompose_two_squares(p)
    assert w.a * w.a + w.b * w.b == p
    assert w.a % 4 == 1 and w.b % 2 == 0


run_lists = st.lists(
    st.tuples(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
        st.one_of(st.integers(0, 40), st.integers(0, 3 * _BLOCK)),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(run_lists)
@example([])
@example([(0, 1, 0), (5, 3, 0)])
@example([(7, 2, _BLOCK)])  # one run, one full block
@example([(0, 1, 0), (3, 5, _BLOCK - 1), (0, 1, 0), (9, 1, 1), (1, 7, 2 * _BLOCK + 3)])
@example([(1, 1, _BLOCK // 2)] * 4)  # 2 _BLOCK entries in four runs
def test_runs_match_plain_expansion(runs):
    start, step, count = (np.array([run[j] for run in runs], dtype=np.int64) for j in range(3))
    expected = [(i, s + k * d) for i, (s, d, n) in enumerate(runs) for k in range(n)]
    got = []
    for i, value in _runs(start, step, count):
        assert i.size == value.size and 0 < i.size <= _BLOCK
        got.extend(zip(i.tolist(), value.tolist()))
    assert got == expected
