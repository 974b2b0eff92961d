"""
Class numbers h(-4p) from reduced forms, step by step
=====================================================

Counts the reduced binary quadratic forms of discriminant -4p for a
few small primes, cross-checks the count against the Dirichlet
character sum, and walks the 2 | h, 4 | h, 8 | h divisibility chain.

Run:  python3 demos/class_numbers_walkthrough.py
"""

from sixteenrank import (
    class_number_dirichlet,
    class_number_enum,
    compose,
    divisibility_chain,
    primes_up_to,
    principal_form,
    two_torsion_form,
)

# p = 41: the smallest prime p = 1 mod 8 of the shape a^2 + c^4 with
# h(-4p) = 8, so every layer of the chain is visible at once.
p = 41
data = class_number_enum(p)
print(f"p = {p}: h(-4p) = {data.h}, so v2(h) = {data.v2}")

# the independent route: h = |sum chi(a)| / 2 over 0 < a < 2p
h_char = class_number_dirichlet(p)
print(f"character sum gives {h_char}, routes agree: {h_char == data.h}")

# the principal form and the 2-torsion form generate the visible
# 2-part; composing the torsion form with itself lands back home
e = principal_form(p)
t = two_torsion_form(p)
print(f"principal form {e}, two-torsion form {t}")
print(f"t * t == e: {compose(t, t) == e}")

# divisibility chain: 2 | h iff p = 1 mod 4, 4 | h iff p = 1 mod 8,
# and 8 | h by three separate routes that must agree
chain = divisibility_chain(p)
print(f"2 | h: {p % 4 == 1}   4 | h: {chain.div4}")
print(f"8 | h by x^2 + 32 y^2:         {chain.div8_forms}")
print(f"8 | h by (1 + i | p) residue:  {chain.div8_2adic}")
print(f"8 | h by a + b = +-1 mod 8:    {chain.div8_decomp}")

# the three routes agree for every p = 1 mod 4, saying no when p = 5 mod 8
for q in primes_up_to(3000):
    if q % 4 == 1:
        c = divisibility_chain(q)
        assert c.div8_forms == c.div8_2adic == c.div8_decomp, q

print()
print("the same chain across the first primes p = 1 mod 8:")
print(f"{'p':>6} {'h':>4} {'v2':>3} {'8|h':>5}")
for q in (17, 41, 73, 89, 97, 113, 137, 193, 233, 257):
    d = class_number_enum(q)
    c = divisibility_chain(q)
    assert c.div8_forms == c.div8_2adic == c.div8_decomp
    print(f"{q:>6} {d.h:>4} {d.v2:>3} {str(c.div8_forms):>5}")
