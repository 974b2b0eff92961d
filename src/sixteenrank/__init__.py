"""Verification lab for 16-rank class number criteria.

Computes h(-4p) two independent ways, decides 16 | h through a 2-adic
square test in Z_2[i], checks fundamental units of Q(sqrt(p)) against
the predicted congruences, and measures the density of primes
p = a^2 + c^4 along congruence classes.

The public names load their submodule on first use (PEP 562), so a
command imports only the routes it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys(("PrimeWitness", "decompose_two_squares", "is_prime", "primes_up_to",
                     "represent_x2_32y2", "sqrt_minus_one_mod_p"), "arith"),
    **dict.fromkeys(("ClassData", "Div8Chain", "QForm", "class_number_dirichlet",
                     "class_number_enum", "compose", "divisibility_chain",
                     "principal_form", "two_torsion_form"), "classgroup"),
    "Refusal": "errors",
    **dict.fromkeys(("GaussInt", "RankCase", "congruent", "hensel_sqrt", "is_square_unit",
                     "m_valuation", "normalize_pi", "omega0", "sixteen_divides",
                     "sixteen_rank_case"), "gauss2adic"),
    **dict.fromkeys(("PellUnit", "UnitCongruences", "fundamental_unit",
                     "predict_unit_congruences", "williams_check"), "realquad"),
    **dict.fromkeys(("TRIVIAL_PAIR", "ClassCount", "CongruencePair", "CountReport",
                     "canonical_pairs", "count_primes", "count_report", "density_constant",
                     "expected_main_term", "g_value", "kappa", "represented_primes"),
                    "sievecounts"),
}


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ClassCount",
    "ClassData",
    "CongruencePair",
    "CountReport",
    "Div8Chain",
    "GaussInt",
    "PellUnit",
    "PrimeWitness",
    "QForm",
    "RankCase",
    "Refusal",
    "TRIVIAL_PAIR",
    "UnitCongruences",
    "canonical_pairs",
    "class_number_dirichlet",
    "class_number_enum",
    "compose",
    "congruent",
    "count_primes",
    "count_report",
    "decompose_two_squares",
    "density_constant",
    "divisibility_chain",
    "expected_main_term",
    "fundamental_unit",
    "g_value",
    "hensel_sqrt",
    "is_prime",
    "is_square_unit",
    "kappa",
    "m_valuation",
    "normalize_pi",
    "omega0",
    "predict_unit_congruences",
    "primes_up_to",
    "principal_form",
    "represent_x2_32y2",
    "represented_primes",
    "sixteen_divides",
    "sixteen_rank_case",
    "sqrt_minus_one_mod_p",
    "two_torsion_form",
    "williams_check",
]
