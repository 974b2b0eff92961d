"""
How often does 2^k divide h(-4p)?
=================================

For every prime p below N, finds the largest k <= 5 with 2^k | h(-4p)
and prints 2^k times the share of primes with 2^k | h, which the
Cohen-Lenstra heuristics put at 1 for every k.  That is known for
k <= 3 and was open for k >= 4 when the paper appeared.  The
divisibility criteria decide k <= 3 (2 | h iff p = 1 mod 4, 4 | h iff
p = 1 mod 8, 8 | h iff p = x^2 + 32 y^2), so only the primes with
8 | h need a class number.

Beside it stands the share of 16 | h among the primes with 8 | h,
over all primes and over the family p = a^2 + c^4 (c even), where the
paper proves that both 16 | h and h = 8 mod 16 occur infinitely often.

Run:  python3 demos/two_power_density.py [N]     (default N = 100000)
"""

import sys

from sixteenrank import (
    RankCase,
    class_number_enum,
    divisibility_chain,
    primes_up_to,
    sixteen_rank_case,
)
from sixteenrank.cli import form_witnesses

N = int(sys.argv[1]) if len(sys.argv) > 1 else 10**5
TOP = 5


def two_depth(p: int) -> int:
    """The largest k <= TOP with 2^k | h(-4p)."""
    if p % 4 != 1:
        return 0  # h(-8) = 1, and h(-4p) is odd for p = 3 mod 4
    chain = divisibility_chain(p)
    # the three 8 | h routes must agree, and say no when 4 does not divide h
    assert chain.div8_forms == chain.div8_2adic == chain.div8_decomp
    if not chain.div4:
        return 1
    if not chain.div8_forms:
        return 2
    v2 = class_number_enum(p).v2
    assert v2 >= 3, p
    return min(v2, TOP)


depth = {p: two_depth(p) for p in primes_up_to(N - 1)}
at_least = [sum(d >= k for d in depth.values()) for k in range(TOP + 1)]
print(f"{at_least[0]} primes below {N}; class numbers computed for the "
      f"{at_least[3]} with 8 | h")
print()
print(f"{'k':>2} {'2^k | h':>8} {'share':>8} {'2^k * share':>12}")
for k in range(1, TOP + 1):
    share = at_least[k] / at_least[0]
    print(f"{k:>2} {at_least[k]:>8} {share:>8.5f} {2**k * share:>12.3f}")
print()

# the family: the congruence table's verdict must match the class number
deep = {RankCase.DIV16: 0, RankCase.EXACTLY8: 0}
for p, a, c in form_witnesses(N - 1):
    case = sixteen_rank_case(a, c)
    assert case is RankCase.of_v2(depth[p]), p
    if case in deep:
        deep[case] += 1

print("share of 16 | h among the primes with 8 | h:")
print(f"  all primes:           {at_least[4]:>6} of {at_least[3]:>6} = "
      f"{at_least[4] / at_least[3]:.3f}")
family = deep[RankCase.DIV16] + deep[RankCase.EXACTLY8]
print(f"  family a^2 + c^4:     {deep[RankCase.DIV16]:>6} of {family:>6} = "
      f"{deep[RankCase.DIV16] / family:.3f}")
