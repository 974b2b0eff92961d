"""Fundamental units against brute-force minimal Pell solutions."""

import math

import pytest

from sixteenrank import (
    Refusal,
    decompose_two_squares,
    fundamental_unit,
    predict_unit_congruences,
    primes_up_to,
    sixteen_rank_case,
    williams_check,
)
from sixteenrank.gauss2adic import RankCase


def no_smaller_solution(p, u_bound):
    # certifies that no u in (0, u_bound) solves t^2 - p u^2 = -1
    for u in range(1, u_bound):
        t2 = p * u * u - 1
        t = math.isqrt(t2)
        if t * t == t2:
            return False
    return True


def test_frozen_minimal_units():
    expected = {
        17: (4, 1),
        41: (32, 5),
        73: (1068, 125),
        89: (500, 53),
        97: (5604, 569),
        113: (776, 73),
        137: (1744, 149),
        233: (23156, 1517),
        257: (16, 1),
    }
    for p, (t, u) in expected.items():
        unit = fundamental_unit(p)
        assert (unit.t, unit.u) == (t, u), p
        assert unit.norm == -1
        assert unit.t**2 - p * unit.u**2 == -1


def test_units_are_minimal():
    for p in primes_up_to(2000):
        if p % 8 != 1:
            continue
        unit = fundamental_unit(p)
        # direct scan below the returned u; capped so giant units only
        # get a partial certificate
        assert no_smaller_solution(p, min(unit.u, 20000)), p


def test_norm_is_minus_one_everywhere():
    for p in primes_up_to(20000):
        if p % 8 != 1:
            continue
        unit = fundamental_unit(p)
        assert unit.norm == -1
        assert unit.t > 0 and unit.u > 0
        assert unit.t**2 - p * unit.u**2 == -1


def test_fundamental_unit_refusals():
    with pytest.raises(Refusal):
        fundamental_unit(13)  # 5 mod 8
    with pytest.raises(Refusal):
        fundamental_unit(7)
    # the least prime = 1 mod 8 above 10^7
    with pytest.raises(Refusal, match="unit budget"):
        fundamental_unit(10_000_121)


def test_williams_worked_chain():
    # p = 41: T = 32, h = 8, and 32 + 41 - 1 = 72 = 8 mod 16
    unit = fundamental_unit(41)
    assert unit.t == 32
    assert williams_check(41, 8, unit)
    assert not williams_check(41, 16, unit)


def test_williams_refusals():
    unit = fundamental_unit(41)
    with pytest.raises(Refusal):
        williams_check(41, 4, unit)  # needs 8 | h
    with pytest.raises(Refusal):
        williams_check(17, 8, unit)  # unit belongs to another field


def test_prediction_table():
    cases = {
        (1, 4): (0, {1, 7}),  # a = +-1 mod 16, c = 0 mod 4
        (15, 4): (0, {1, 7}),
        (3, 2): (8, {3, 5}),  # a = +-3 mod 16, c = 2 mod 4
        (13, 2): (8, {3, 5}),
        (7, 4): (8, {1, 7}),  # a = +-7 mod 16, c = 0 mod 4
        (9, 4): (8, {1, 7}),
        (5, 2): (0, {3, 5}),  # a = +-5 mod 16, c = 2 mod 4
        (11, 2): (0, {3, 5}),
    }
    for (a, c), (t16, u8) in cases.items():
        pred = predict_unit_congruences(a, c)
        assert pred.t_mod_16 == t16
        assert set(pred.u_mod_8) == u8


def test_t_prediction_is_williams_congruence_on_every_residue():
    # h = T + p - 1 mod 16 with h = 0 (DIV16) or 8 (EXACTLY8) mod 16, and
    # p = a^2 mod 16 for c even: the T column follows for every prime
    deep = 0
    for a in range(1, 16, 2):
        for c in (0, 2):
            case = sixteen_rank_case(a, c)
            if case is RankCase.NOT8:
                continue
            deep += 1
            exactly8 = case is RankCase.EXACTLY8
            assert predict_unit_congruences(a, c).t_mod_16 == (1 - a * a + 8 * exactly8) % 16, (a, c)
    assert deep == 8


def test_prediction_refuses_outside_covered_cases():
    with pytest.raises(Refusal):
        predict_unit_congruences(1, 2)  # a + c^2 = 5 mod 8
    with pytest.raises(Refusal):
        predict_unit_congruences(3, 4)


def test_predictions_match_computed_units():
    for p in (41, 257, 337, 881, 1321, 2657, 10169):
        w = decompose_two_squares(p)
        assert w.c is not None
        assert sixteen_rank_case(w.a, w.c) is not RankCase.NOT8
        pred = predict_unit_congruences(w.a, w.c)
        unit = fundamental_unit(p)
        assert unit.t % 16 == pred.t_mod_16, p
        assert unit.u % 8 in pred.u_mod_8, p
