"""Class numbers and composition, checked against direct enumeration."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixteenrank import (
    Div8Chain,
    QForm,
    Refusal,
    class_number_dirichlet,
    class_number_enum,
    compose,
    divisibility_chain,
    is_prime,
    primes_up_to,
    principal_form,
    sqrt_minus_one_mod_p,
    two_torsion_form,
)
from sixteenrank import arith, classgroup, cli, realquad
from sixteenrank.arith import _powmod
from sixteenrank.classgroup import _ENUM_LIMIT, _RESIDUE_CUT, _grow, _root_table, _splits


def is_reduced(f):
    # positive definite convention: -a < b <= a <= c, b >= 0 if a == c
    return f.a > 0 and -f.a < f.b <= f.a <= f.c and (f.b >= 0 or f.a != f.c)


def inverse(f):
    # the class of (a, -b, c), reduced
    return QForm(f.a, -f.b, f.c).reduced()


def brute_reduced_forms(p):
    """Every reduced positive definite form of discriminant -4p, by scan."""
    disc = -4 * p
    out = []
    for a in range(1, math.isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            out.append(QForm(a, b, c))
    return out


def divisor_class_number(p):
    """h(-4p) by the per-b divisor enumeration, the slow oracle.

    A reduced form has B = 2b with 0 <= 2b <= A <= C and AC = p + b^2;
    each divisor A of p + b^2 in [max(1, 2b), sqrt(p + b^2)] yields one
    form when b = 0, A = 2b or A = C, and a (+-B)-pair otherwise.  Each
    block of b tests every A in its range at once, on a (b, A) grid of
    about 2^20 cells.
    """
    bmax = math.isqrt(p // 3)
    rows = max(1, 2**20 // math.isqrt(p + bmax * bmax))
    h = 0
    for b0 in range(0, bmax + 1, rows):
        b1 = min(b0 + rows, bmax + 1)
        b = np.arange(b0, b1, dtype=np.int64)[:, None]
        a = np.arange(max(1, 2 * b0), math.isqrt(p + (b1 - 1) ** 2) + 1, dtype=np.int64)
        n = p + b * b
        hit = (n % a == 0) & (a >= 2 * b) & (a * a <= n)
        single = (b == 0) | (a == 2 * b) | (a * a == n)
        h += 2 * int(np.count_nonzero(hit)) - int(np.count_nonzero(hit & single))
    return h


def next_prime_1_mod_4(n):
    n += (1 - n) % 4
    while not is_prime(n):
        n += 4
    return n


def test_class_number_matches_divisor_enumeration():
    for p in primes_up_to(10**5):
        if p % 4 == 1:
            assert class_number_enum(p).h == divisor_class_number(p), p


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10**8 - 10**4).map(next_prime_1_mod_4))
def test_class_number_matches_divisor_enumeration_large(p):
    assert class_number_enum(p).h == divisor_class_number(p)


# isqrt(4p/3) reaches _RESIDUE_CUT = 4096 at p = 12,582,912, and the first
# prime above the cut, 4099, at p = 12,601,351: the nearest primes = 1 mod 4
# on either side of each border
@pytest.mark.parametrize("p", [12582893, 12582917, 12601297, 12601357])
def test_class_number_across_the_residue_cut(p):
    assert is_prime(p) and p % 4 == 1
    assert class_number_enum(p).h == divisor_class_number(p)


def plain_class_number(p):
    """h(-4p) by a full-range scan: rho(A) summed over A < sqrt(p), with
    each (-p | q) from Euler's criterion, plus the two forms (A, +-2b, C)
    for every b in [ceil(sqrt(A^2 - p)), A/2] with A | p + b^2, over every
    A in (sqrt(p), sqrt(4p/3)]."""
    root, top = math.isqrt(p), math.isqrt(4 * p // 3)
    rho = np.ones(root + 1, dtype=np.int64)
    rho[0] = 0
    rho[4::4] = 0
    for q in primes_up_to(root)[1:]:
        rho[q::q] *= 2 if pow(-p % q, q >> 1, q) == 1 else 0
    h = int(rho.sum())
    for a in range(root + 1, top + 1):
        b = np.arange(math.isqrt(a * a - p - 1) + 1, a // 2 + 1, dtype=np.int64)
        h += 2 * int(np.count_nonzero((p + b * b) % a == 0))
    return h


def fallback_forms(p):
    """The (A, b) of the forms (A, 2b, C) with A above sqrt(p) and no odd
    prime factor <= _RESIDUE_CUT, found by scanning every b."""
    small = primes_up_to(_RESIDUE_CUT)[1:]
    return [
        (a, b)
        for a in range(math.isqrt(p) + 1, math.isqrt(4 * p // 3) + 1)
        if all(a % q for q in small)
        for b in range(math.isqrt(a * a - p - 1) + 1, a // 2 + 1)
        if (p + b * b) % a == 0
    ]


# p of every size up to _ENUM_LIMIT, as often small as large, since the
# plain scan costs about p / 40 divisions
sized_p = st.integers(min_value=3, max_value=_ENUM_LIMIT.bit_length()).flatmap(
    lambda k: st.integers(min_value=2 ** (k - 1), max_value=min(2**k, 1999999973))
).map(next_prime_1_mod_4)


@settings(max_examples=25, deadline=None)
@given(sized_p)
@example(5)
@example(12582893)  # the nearest primes = 1 mod 4 around isqrt(4p/3) = 4096
@example(12582917)
# a form (4099, 2 * 2049, C): 4099 is prime and past _RESIDUE_CUT, so its b
# come from the scan of every b, and b = A // 2 is the last of them
@example(12615697)
@example(12640261)  # the form (4099, 2 * 2044, C)
def test_class_number_matches_plain_scan(p):
    assert class_number_enum(p).h == plain_class_number(p)


@pytest.mark.parametrize("p, forms", [(12615697, [(4099, 2049)]), (12640261, [(4099, 2044)])])
def test_fallback_examples_hold_forms(p, forms):
    # the examples above reach the A with no odd prime factor <= _RESIDUE_CUT
    assert is_prime(p) and p % 4 == 1
    assert fallback_forms(p) == forms


def grown_table(monkeypatch, *tops):
    """The table after calls whose A reach each top in turn, from the empty
    table a process starts with."""
    monkeypatch.setattr(classgroup, "_table", classgroup._EMPTY_TABLE)
    for top in tops:
        _root_table(top)
    return classgroup._table


# 8 and 64 hold few primes, 1024 and 2048 reach as far as a verify sweep, and
# past _RESIDUE_CUT the roots stop at it
@pytest.mark.parametrize("bound", [8, 64, 1024, 2048, 2 * _RESIDUE_CUT])
def test_residue_tables_match_euler_criterion(bound, monkeypatch):
    # the table grown to the bound at once, and grown to it in steps, are
    # the same; it reaches the bound and stops short of the next chunk
    table = grown_table(monkeypatch, bound)
    steps = grown_table(monkeypatch, *range(2, bound, 700), bound)
    assert all(np.array_equal(x, y) for x, y in zip(table, steps))
    top = table.weight.size - 1
    assert bound <= top < bound + classgroup._CHUNK
    # every odd prime q <= min(top, _RESIDUE_CUT) and every r mod q: the
    # table holds -1 for the non-residues of Euler's criterion, else a root
    # x <= q/2
    assert table.q.tolist() == list(primes_up_to(top)[1:])
    q = table.q[: table.offset.size]
    assert q.tolist() == list(primes_up_to(min(top, _RESIDUE_CUT))[1:])
    assert table.roots.size == q.sum()
    mod = np.repeat(q, q)
    r = np.arange(mod.size) - np.repeat(table.offset, q)
    x = table.roots.astype(np.int64)
    residue = _powmod(r, mod >> 1, mod) != mod - 1
    assert np.array_equal(x != -1, residue)
    x, mod, r = x[residue], mod[residue], r[residue]
    assert np.all((0 <= x) & (2 * x <= mod))
    assert np.array_equal(x * x % mod, r)
    # factor[A] is the index of the largest q <= _RESIDUE_CUT dividing A
    factor = np.full(table.factor.size, -1)
    for i, m in enumerate(q.tolist()):
        factor[m::m] = i
    assert np.array_equal(table.factor, factor)
    # modulus[factor[A]] is that q, or 1; primes[A] and pairs[A] count the
    # q <= A and the pairs (A', i) with A' <= A
    assert np.array_equal(table.modulus[factor], np.where(factor >= 0, q[factor], 1))
    a = np.arange(top + 1)
    assert np.array_equal(table.primes, [np.count_nonzero(table.q <= v) for v in a.tolist()])
    assert np.array_equal(table.pairs, [np.count_nonzero(table.pair_a <= v) for v in a.tolist()])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=_RESIDUE_CUT, max_value=_ENUM_LIMIT - 10**4).map(next_prime_1_mod_4))
def test_splits_match_euler_criterion(p):
    # p > _RESIDUE_CUT, so no q of the roots divides p; the q past them, up
    # to 2 * _RESIDUE_CUT, are decided by Euler's criterion in _splits itself
    table = _root_table(2 * _RESIDUE_CUT)
    q = table.q[: table.primes[2 * _RESIDUE_CUT]]
    split, x = _splits(p, q, table)
    x = x.astype(np.int64)
    assert np.array_equal(split, _powmod(-p % q, q >> 1, q) == 1)
    small = q[: x.size]
    assert x.size == table.offset.size
    assert np.array_equal(x >= 0, split[: x.size])
    assert np.all(((x * x + p) % small == 0) | (x == -1))


def nearest_primes_1_mod_4(n):
    """The largest prime = 1 mod 4 below n and the smallest at or above it."""
    below = n - 1 - (n - 2) % 4
    while not is_prime(below):
        below -= 4
    return below, next_prime_1_mod_4(n)


# isqrt(4p/3) reaches 2^k at p = 3 * 4^(k-1); from k = 8 on, 2^k is a seam
# where the table grows by a chunk
@pytest.mark.parametrize("k", range(3, 14))
def test_class_number_at_the_table_seams(k):
    below, above = nearest_primes_1_mod_4(3 * 4 ** (k - 1))
    assert math.isqrt(4 * below // 3).bit_length() == k
    assert math.isqrt(4 * above // 3).bit_length() == k + 1
    for p in (below, above):
        assert class_number_enum(p).h == plain_class_number(p), p


def test_class_number_does_not_depend_on_call_order(monkeypatch):
    # the 100 primes = 1 mod 4 on each side of the seam where isqrt(4p/3)
    # passes 1024, each also computed alone from an empty table and by the
    # plain scan
    seam = 3 * 4**9
    near = [p for p in range(seam - 3999, seam + 4000, 4) if is_prime(p)]
    ps = [p for p in near if p < seam][-100:] + [p for p in near if p > seam][:100]
    assert len(ps) == 200
    alone = {}
    for p in ps:
        monkeypatch.setattr(classgroup, "_table", classgroup._EMPTY_TABLE)
        alone[p] = class_number_enum(p)
        assert alone[p].h == plain_class_number(p), p
    for order in (ps[::-1], ps):
        assert [class_number_enum(p) for p in order] == [alone[p] for p in order]


def test_shuffled_calls_build_each_part_of_the_table_once(monkeypatch):
    # about 300 primes whose isqrt(4p/3) runs from 200 to 9000, across the
    # seams from 256 to 8192 and past _RESIDUE_CUT, in random order: the
    # table is built to each bound at most once, always larger, so the roots
    # of each q are filled once; the class numbers are those of increasing
    # order
    rng = random.Random(32)
    ps = sorted({next_prime_1_mod_4(3 * rng.randrange(200, 9000) ** 2 // 4) for _ in range(300)})
    grown_table(monkeypatch)
    expected = {p: class_number_enum(p) for p in ps}
    for p in ps[::30]:
        assert expected[p].h == plain_class_number(p), p
    bounds, grows = [], []

    def counted(limit):
        bounds.append(limit)
        return primes_up_to(limit)

    def grow(table, bound):
        grows.append((table.weight.size - 1, bound))
        return _grow(table, bound)

    monkeypatch.setattr(classgroup, "primes_up_to", counted)
    monkeypatch.setattr(classgroup, "_grow", grow)
    grown_table(monkeypatch)
    shuffled = rng.sample(ps, len(ps))
    assert [class_number_enum(p) for p in shuffled] == [expected[p] for p in shuffled]
    # each growth starts where the one before it stopped
    assert bounds == sorted(set(bounds))
    assert grows == list(zip([0, *bounds[:-1]], bounds))
    table = classgroup._table
    assert bounds[-1] == table.weight.size - 1 > 8192
    q = table.q[: table.offset.size]
    assert q[-1] <= _RESIDUE_CUT < table.q[q.size]
    assert np.array_equal(table.offset, q.cumsum() - q) and table.roots.size == q.sum()


def test_import_builds_no_table():
    # the tables start empty and grow on the first call, so an import sieves
    # nothing and leaves the prime caches as they were
    env = dict(os.environ, PYTHONPATH=str(Path(classgroup.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from sixteenrank.arith import odd_prime_flags, primes_up_to\n"
         "assert 'sixteenrank.classgroup' not in sys.modules\n"
         "info = lambda: (odd_prime_flags.cache_info(), primes_up_to.cache_info())\n"
         "before = info()\n"
         "import sixteenrank.classgroup\n"
         "print(before == info(), before)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("True "), proc.stdout


def test_class_number_at_the_enumeration_limit():
    # the largest prime = 1 mod 4 below _ENUM_LIMIT, where the count
    # above sqrt(p) runs over many blocks; the value is the divisor
    # enumeration's
    assert class_number_enum(1999999973).h == 47046


def test_cli_primes_and_the_enumeration_limit_fit_the_root_table(monkeypatch):
    # every p the command line hands to class_number_enum has
    # isqrt(4p/3) <= _RESIDUE_CUT: verify's p up to VERIFY_BUDGET, and unit's
    # up to _UNIT_LIMIT, as fundamental_unit refuses a larger p first.  So
    # the command line never takes Euler's criterion, nor the class of every
    # b, which needs A >= 4099
    assert math.isqrt(4 * cli.VERIFY_BUDGET // 3) == 1632 <= _RESIDUE_CUT
    assert math.isqrt(4 * realquad._UNIT_LIMIT // 3) == 3651 <= _RESIDUE_CUT
    monkeypatch.setattr(classgroup, "class_number_enum", None)
    with pytest.raises(Refusal, match="unit budget"):
        cli.cmd_unit(10000121)  # the least prime = 1 mod 8 above _UNIT_LIMIT
    # the table at _ENUM_LIMIT has bound 51,712 and 5,290 odd primes, so the
    # index i of q[i] fits the 16 bits of the key that sorts pair_a
    table = grown_table(monkeypatch, math.isqrt(4 * _ENUM_LIMIT // 3))
    assert table.weight.size - 1 == 51712 and table.q.size == 5290 < 2**16
    assert (np.diff(table.pair_a) >= 0).all()
    assert (table.pair_a % table.q[table.pair_i] == 0).all()


def test_spot_class_numbers():
    # re-derivable by listing reduced forms by hand
    assert class_number_enum(5).h == 2  # (1,0,5), (2,2,3)
    assert class_number_enum(17).h == 4
    assert class_number_enum(41).h == 8
    assert class_number_enum(257).h == 16
    assert class_number_enum(1049).h == 44


def test_three_route_class_number_agreement():
    for p in primes_up_to(3000):
        if p % 4 != 1:
            continue
        brute = len(brute_reduced_forms(p))
        data = class_number_enum(p)
        assert data.h == brute, p
        assert class_number_dirichlet(p) == brute, p
        assert data.v2 == (data.h & -data.h).bit_length() - 1
        assert data.p == p


def test_dirichlet_oracle_at_its_budget():
    # the largest p = 1 mod 4 below _DIRICHLET_LIMIT; the half-period sum
    # needs one Legendre table mod p, not arrays over the period 4p
    p = 999961
    tracemalloc.start()
    try:
        h = class_number_dirichlet(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == class_number_enum(p).h
    assert peak < 64 * 2**20, peak


def test_class_number_refusals():
    with pytest.raises(Refusal):
        class_number_enum(7)  # 3 mod 4
    with pytest.raises(Refusal):
        class_number_enum(21)  # composite
    with pytest.raises(Refusal):
        class_number_dirichlet(10**6 + 81)  # past the character-sum budget
    with pytest.raises(Refusal, match="enumeration budget"):
        class_number_enum(2_000_000_033)  # the least prime = 1 mod 4 above 2 * 10^9


def test_reduction_lands_in_reduced_set():
    p = 41
    reduced = {(f.a, f.b, f.c) for f in brute_reduced_forms(p)}
    # unreduced equivalents produced by shearing reduced ones
    seeds = brute_reduced_forms(p)
    for f in seeds:
        for s in (-3, -1, 1, 2, 5):
            # (a, b, c) -> (a, b + 2sa, c') keeps the class and discriminant
            g = QForm(f.a, f.b + 2 * s * f.a, f.a * s * s + f.b * s + f.c)
            assert g.disc == f.disc
            r = g.reduced()
            assert is_reduced(r)
            assert (r.a, r.b, r.c) in reduced
            assert (r.a, r.b, r.c) == (f.a, f.b, f.c)
    # a = c needs b >= 0, a case no discriminant -4p with p > 3 prime reaches
    assert QForm(3, -2, 3).reduced() == QForm(3, 2, 3)


@pytest.mark.parametrize("f", [QForm(0, 1, 5), QForm(-1, 0, -5), QForm(1, 3, 1)])
def test_reduction_refuses_forms_not_positive_definite(f):
    # (0, 1, 5) used to divide by zero, (-1, 0, -5) to come back unreduced
    with pytest.raises(Refusal, match="positive definite"):
        f.reduced()
    with pytest.raises(Refusal, match="positive definite"):
        inverse(f)


def test_principal_and_two_torsion_forms():
    for p in (5, 13, 17, 41, 113, 257):
        e = principal_form(p)
        t = two_torsion_form(p)
        assert e.disc == t.disc == -4 * p
        assert is_reduced(e) and is_reduced(t)
        assert t != e
        assert compose(t, t) == e
        assert compose(e, t) == t


@pytest.mark.parametrize("p, h", [(5, 2), (17, 4), (41, 8), (113, 8), (257, 16), (1049, 44)])
def test_composition_group_structure(p, h):
    # the reduced classes of discriminant -4p form an abelian group of
    # order h, closed under composition
    forms = brute_reduced_forms(p)
    assert len(forms) == h == class_number_enum(p).h
    e = principal_form(p)
    key = lambda f: (f.a, f.b, f.c)
    classes = {key(x) for x in forms}
    for f in forms:
        row = []
        for g in forms:
            fg = compose(f, g)
            assert is_reduced(fg)
            assert key(fg) == key(compose(g, f))
            row.append(key(fg))
        # cancellation: each row is a permutation of the classes
        assert set(row) == classes
    for f in forms:
        assert key(compose(f, e)) == key(f)
        assert key(compose(f, inverse(f))) == key(e)
    rng = random.Random(p)
    for _ in range(200):
        f, g, k = (rng.choice(forms) for _ in range(3))
        assert key(compose(compose(f, g), k)) == key(compose(f, compose(g, k)))


def prime_form(p, q0, sign):
    """(q, 2x, (x^2 + p)/q) for the least prime q >= q0 with x^2 = -p mod q."""
    q = q0
    while True:
        if is_prime(q):
            x = next((x for x in range(q) if (x * x + p) % q == 0), None)
            if x is not None:
                return QForm(q, 2 * sign * x, (x * x + p) // q)
        q += 1


def form_power(f, n, p):
    """f^n by square-and-multiply."""
    acc = principal_form(p)
    while n:
        if n & 1:
            acc = compose(acc, f)
        f = compose(f, f)
        n >>= 1
    return acc


q_starts = st.integers(min_value=2, max_value=400)
signs = st.sampled_from((1, -1))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**15 - 10**4).map(next_prime_1_mod_4),
    st.lists(st.tuples(q_starts, signs), min_size=3, max_size=3),
)
def test_composition_group_laws_on_prime_forms(p, starts):
    f, g, k = (prime_form(p, q0, sign) for q0, sign in starts)
    e = principal_form(p)
    for x in (f, g, k):
        assert x.disc == -4 * p
    fg = compose(f, g)
    assert is_reduced(fg) and fg.disc == -4 * p
    assert compose(f, e) == f.reduced()
    assert compose(f, inverse(f)) == e
    assert fg == compose(g, f)
    assert compose(fg, k) == compose(f, compose(g, k))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**6 - 10**3).map(next_prime_1_mod_4), q_starts, signs)
def test_prime_form_order_divides_class_number(p, q0, sign):
    f = prime_form(p, q0, sign)
    assert form_power(f, class_number_enum(p).h, p) == principal_form(p)


def test_composition_finds_order_eight_generator():
    # the 2-part of the class group is cyclic, so with h = 8 some class
    # has order exactly 8
    p = 41
    forms = brute_reduced_forms(p)
    e = principal_form(p)
    orders = set()
    for f in forms:
        acc = f
        n = 1
        while acc != e:
            acc = compose(acc, f)
            n += 1
            assert n <= 8
        orders.add(n)
    assert 8 in orders


def test_compose_refusals():
    with pytest.raises(Refusal):
        compose(principal_form(5), principal_form(13))
    with pytest.raises(Refusal):
        compose(QForm(1, 1, 1), QForm(1, 1, 1))  # odd discriminant
    with pytest.raises(Refusal, match="primitive"):
        compose(QForm(2, 2, 2), QForm(2, 2, 2))  # disc -12, content 2
    with pytest.raises(Refusal, match="primitive"):
        compose(principal_form(3), QForm(2, 2, 2))


def test_divisibility_chain_routes_agree_with_class_number():
    for p in primes_up_to(3000):
        if p % 4 != 1:
            continue
        h = len(brute_reduced_forms(p))
        chain = divisibility_chain(p)
        assert h % 2 == 0
        assert chain.div4 == (h % 4 == 0) == (p % 8 == 1)
        if p % 8 == 1:
            div8 = h % 8 == 0
            assert chain.div8_forms == div8, p
            assert chain.div8_2adic == div8, p
            assert chain.div8_decomp == div8, p
        else:
            assert not chain.div4
            assert not chain.div8_forms
            assert not chain.div8_2adic
            assert not chain.div8_decomp, p


def test_divisibility_chain_residue_test_reads_either_root():
    # (1 + r)(1 - r) = 2 is a square mod p = 1 mod 8, so both roots of -1
    # give the Euler symbol that the chain reads off the two-square witness
    for p in primes_up_to(3000):
        if p % 8 != 1:
            continue
        r = sqrt_minus_one_mod_p(p)
        plus = pow(1 + r, (p - 1) // 2, p) == 1
        minus = pow(1 - r, (p - 1) // 2, p) == 1
        assert divisibility_chain(p).div8_2adic == plus == minus, p


def test_divisibility_chain_refusals():
    # 65 = 1 mod 8 but 5 * 13; 21 = 1 mod 4 but 3 * 7; 7 = 3 mod 4
    for n in (65, 21, 7):
        with pytest.raises(Refusal, match="need a prime = 1 mod 4"):
            divisibility_chain(n)
    # 13 = 5 mod 8 has 4 not dividing h: no residue test, and the answer no
    assert divisibility_chain(13) == Div8Chain(False, False, False, False)


@pytest.mark.parametrize("p", [41, 9_999_937])
def test_divisibility_chain_finds_sqrt_minus_one_once(p, monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return sqrt_minus_one_mod_p(q)

    monkeypatch.setattr(arith, "sqrt_minus_one_mod_p", counted)
    assert divisibility_chain(p).div4
    assert calls == [p]
