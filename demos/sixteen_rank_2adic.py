"""
Deciding 16 | h(-4p) with 2-adic Gaussian arithmetic
====================================================

For p = a^2 + c^4 with c even, whether 16 divides h(-4p) is decided
by a finite computation in Z_2[i]: normalize the Gaussian prime above
p, lift its square root through the maximal ideal m = (1 + i), build
the element w0 = c(1 + i) + sqrt(pi), and ask whether w0 is congruent
to +-1 mod m^5 (the square-unit test).

Run:  python3 demos/sixteen_rank_2adic.py
"""

from sixteenrank import (
    GaussInt,
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

# p = 257 = 1^2 + 4^4 is the first prime of this shape with 16 | h
p = 257
w = decompose_two_squares(p)
print(f"p = {p} = {w.a}^2 + {w.b}^2, with b = c^2 for c = {w.c}")

pi = normalize_pi(w)
print(f"normalized Gaussian prime pi = {pi}  (chosen so pi = 1 mod m^5)")

# square root by 2-adic lifting, one m-adic digit per step
root = hensel_sqrt(pi, 7)
print(f"sqrt(pi) mod m^7 = {root}")
print(f"check: root^2 == pi mod m^7: {congruent(root * root, pi, 7)}")

# the square-unit test asks for w0 = +-1 mod m^5, i.e. one of
# v(w0 - 1) >= 5 or v(w0 + 1) >= 5
w0 = omega0(w, root)
one = GaussInt(1, 0)
print(f"w0 = c(1+i) + sqrt(pi) = {w0}")
print(f"v(w0 - 1) = {m_valuation(w0 - one)}, v(w0 + 1) = {m_valuation(w0 + one)}")
print(f"w0 is a square unit: {is_square_unit(w0)}")

verdict = sixteen_divides(w)
h = class_number_enum(p).h
print(f"16 | h predicted: {verdict};  actual h = {h}, 16 | h: {h % 16 == 0}")

print()

# contrast prime: p = 41 = 5^2 + 2^4 has h = 8 exactly
p = 41
w = decompose_two_squares(p)
verdict = sixteen_divides(w)
h = class_number_enum(p).h
print(f"p = {p} = {w.a}^2 + {w.c}^4: 16 | h predicted {verdict}, actual h = {h}")

print()
print("the closed-form congruence table gives the same answers from")
print("(a mod 16, c mod 4) alone, no 2-adic work at run time:")
for p in (257, 41, 17, 1297, 2657):
    w = decompose_two_squares(p)
    case = sixteen_rank_case(w.a, w.c)
    h = class_number_enum(p).h
    print(f"  p = {p:>5} = {w.a:>3}^2 + {w.c}^4   case {case.value:<8} h = {h}")
