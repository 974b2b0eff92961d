"""Acceptance gate: one test per stated criterion, one printed line each.

Each test computes its verdict first, prints a single PASS/FAIL line
(visible under pytest -s, and in the failure report otherwise), then
asserts.  Nothing here weakens a tolerance to force a green run.
"""

import math
import random

import numpy as np
import pytest

from sixteenrank import (
    class_number_dirichlet,
    class_number_enum,
    count_primes,
    count_report,
    decompose_two_squares,
    divisibility_chain,
    expected_main_term,
    fundamental_unit,
    hensel_sqrt,
    kappa,
    m_valuation,
    normalize_pi,
    omega0,
    predict_unit_congruences,
    primes_up_to,
    represented_primes,
    sixteen_rank_case,
    williams_check,
)
from sixteenrank.cli import cmd_verify_sixteen, form_witnesses
from sixteenrank.gauss2adic import GaussInt, RankCase, m_power
from sixteenrank.sievecounts import TRIVIAL_PAIR, CongruencePair, canonical_pairs

X_LARGE = 10**8
SWEEP_LIMIT = 2 * 10**6


def verdict(n, ok, detail):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def sweep():
    return cmd_verify_sixteen(SWEEP_LIMIT)


def test_criterion_01_three_route_sixteen_rank_sweep(sweep):
    bad = [r for r in sweep.rows if not r.agree]
    ok = not bad and len(sweep.rows) > 0
    line = verdict(
        1,
        ok,
        f"congruence class, 2-adic square test, and v2(h) agree on all "
        f"{len(sweep.rows)} primes a^2+c^4 <= {SWEEP_LIMIT} "
        f"(tallies {sweep.tallies})",
    )
    assert ok, line + f"; disagreements: {bad[:5]}"


def test_criterion_02_class_number_oracle_equivalence():
    mismatches = []
    for p in primes_up_to(10**4):
        if p % 4 != 1:
            continue
        if class_number_enum(p).h != class_number_dirichlet(p):
            mismatches.append(p)
    ok = not mismatches
    line = verdict(
        2, ok, "form enumeration equals the character-sum class number "
        "for every p = 1 mod 4 below 10^4"
    )
    assert ok, line + f"; mismatches at {mismatches}"


def test_criterion_03_spot_class_numbers():
    got = {p: class_number_enum(p).h for p in (41, 17, 5)}
    ok = got == {41: 8, 17: 4, 5: 2}
    line = verdict(3, ok, f"h(-164) = 8, h(-68) = 4, h(-20) = 2; computed {got}")
    assert ok, line


def test_criterion_04_div8_three_way_identity():
    bad = []
    for p in primes_up_to(10**5):
        if p % 8 != 1:
            continue
        chain = divisibility_chain(p)
        if not (chain.div8_forms == chain.div8_2adic == chain.div8_decomp):
            bad.append(p)
    ok = not bad
    line = verdict(
        4, ok, "x^2+32y^2, the 1+i residue test, and a+b = +-1 mod 8 "
        "agree for every p = 1 mod 8 below 10^5"
    )
    assert ok, line + f"; disagreements at {bad}"


def test_criterion_05_unit_congruence_mod_16():
    bad = []
    checked = 0
    for p in primes_up_to(10**5):
        if p % 8 != 1:
            continue
        h = class_number_enum(p).h
        if h % 8:
            continue
        checked += 1
        if not williams_check(p, h, fundamental_unit(p)):
            bad.append(p)
    u41 = fundamental_unit(41)
    chain41 = u41.t == 32 and (32 + 41 - 1) % 16 == 8 == class_number_enum(41).h % 16
    ok = not bad and chain41 and checked > 0
    line = verdict(
        5, ok, f"h = T + p - 1 mod 16 on all {checked} primes p = 1 mod 8 "
        "with 8 | h below 10^5, including the p = 41 chain"
    )
    assert ok, line + f"; failures at {bad}"


def test_criterion_06_unit_congruence_predictions():
    bad = []
    checked = 0
    for p, a, c in form_witnesses(10**6):
        if sixteen_rank_case(a, c) is RankCase.NOT8:
            continue
        checked += 1
        pred = predict_unit_congruences(a, c)
        unit = fundamental_unit(p)
        if unit.t % 16 != pred.t_mod_16 or unit.u % 8 not in pred.u_mod_8:
            bad.append(p)
    ok = not bad and checked > 0
    line = verdict(
        6, ok, f"predicted (T mod 16, U mod 8) matches the computed unit for "
        f"all {checked} primes a^2+c^4 below 10^6 in a covered class"
    )
    assert ok, line + f"; failures at {bad}"


def test_criterion_07_desk_scale_statistics():
    rep = count_report(X_LARGE)
    counts = [r.lattice_count for r in rep.rows]
    mean = sum(counts) / len(counts)
    spread = max(abs(c - mean) / mean for c in counts)
    equi_ok = spread <= 0.10

    total = count_primes(X_LARGE, TRIVIAL_PAIR, mode="lattice")
    main = expected_main_term(X_LARGE, TRIVIAL_PAIR)
    mag_err = abs(total / main - 1)
    mag_ok = mag_err <= 0.25

    ok = equi_ok and mag_ok
    line = verdict(
        7, ok, f"at X = 10^8: class spread {spread:.3f} (tol 0.10), "
        f"total {total} vs main term {main:.0f}, off by {mag_err:.3f} (tol 0.25)"
    )
    assert ok, line


def test_criterion_08_distinct_prime_lower_bounds():
    by_case = {RankCase.DIV16: [], RankCase.EXACTLY8: []}
    for pair in canonical_pairs():
        case = sixteen_rank_case(pair.a0, pair.c0)
        if case in by_case:
            by_case[case].append(represented_primes(X_LARGE, pair))
    div16 = int(np.unique(np.concatenate(by_case[RankCase.DIV16])).size)
    exactly8 = int(np.unique(np.concatenate(by_case[RankCase.EXACTLY8])).size)
    # Each prime a^2 + c^4 (a, c > 0) counts once.  Those with a odd and
    # c even have density (2 kappa / pi) X^(3/4) / log X, and each deep
    # case is 4 of the 16 classes (a mod 16, c mod 4), a quarter of that:
    # (kappa / 2 pi) X^(3/4) / log X, with kappa / 2 pi ~ 0.139.
    bound = kappa() / (2 * math.pi) * X_LARGE**0.75 / math.log(X_LARGE)
    ok = div16 > bound and exactly8 > bound
    line = verdict(
        8, ok, f"at X = 10^8: distinct primes with 16 | h: {div16}, "
        f"with h = 8 mod 16: {exactly8}, "
        f"required (kappa/2pi) X^(3/4)/log X = {bound:.0f} each"
    )
    assert ok, line


def test_criterion_09_two_adic_unit_identities(sweep):
    rng = random.Random(20260822)
    m5 = GaussInt(-4, -4)

    sqrt_fail = 0
    for _ in range(1000):
        prec = rng.randrange(3, 41)
        pi = GaussInt(1, 0) + m5 * GaussInt(rng.randrange(1 << 24), rng.randrange(1 << 24))
        s = hensel_sqrt(pi, prec)
        if m_valuation(s * s - pi) < prec:
            sqrt_fail += 1

    square_fail = 0
    one = GaussInt(1, 0)
    for _ in range(1000):
        k = rng.randrange(3, 31)
        w = GaussInt(rng.randrange(1 << 10), rng.randrange(1 << 10))
        z = one + m_power(k) * w
        if m_valuation(z * z - one) < k + 2:
            square_fail += 1

    norm_fail = 0
    witnesses = [r for r in sweep.rows if r.case != "NOT8"][:1000]
    for row in witnesses:
        w = decompose_two_squares(row.p)
        pi = normalize_pi(w)
        s = hensel_sqrt(pi, 7)
        w0 = omega0(w, s)
        w2 = GaussInt(w.c, w.c) - s
        if m_valuation(w0 * w2 + pi.conj()) < 7:
            norm_fail += 1

    ok = sqrt_fail == 0 and square_fail == 0 and norm_fail == 0 and len(witnesses) == 1000
    line = verdict(
        9, ok, f"hensel square roots (0/1000 bad), squaring into U^(k+2) "
        f"(0/1000 bad), and the omega norm identity on {len(witnesses)} "
        f"witnesses ({norm_fail} bad)"
    )
    assert ok, line + f"; sqrt {sqrt_fail}, squaring {square_fail}, norm {norm_fail}"


def test_criterion_10_kappa_quadrature():
    value = kappa()
    closed = math.gamma(0.25) * math.gamma(1.5) / (4 * math.gamma(1.75))
    ok = abs(value - 0.874) < 5e-4 and abs(value - closed) < 1e-10
    line = verdict(
        10, ok, f"kappa = {value:.12f}, printed value 0.874, "
        f"Gamma-form residual {abs(value - closed):.2e}"
    )
    assert ok, line
