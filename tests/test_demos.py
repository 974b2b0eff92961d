"""Each script under demos/ runs to its end without writing to stderr, and
the stdout of the 2-adic, class-number and two-power demos is pinned byte
for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


def run_demo(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(script):
    run_demo(script)


SIXTEEN_RANK_2ADIC = """\
p = 257 = 1^2 + 16^2, with b = c^2 for c = 4
normalized Gaussian prime pi = GaussInt(re=1, im=16)  (chosen so pi = 1 mod m^5)
sqrt(pi) mod m^7 = GaussInt(re=1, im=0)
check: root^2 == pi mod m^7: True
w0 = c(1+i) + sqrt(pi) = GaussInt(re=5, im=4)
v(w0 - 1) = 5, v(w0 + 1) = 2
w0 is a square unit: True
16 | h predicted: True;  actual h = 16, 16 | h: True

p = 41 = 5^2 + 2^4: 16 | h predicted False, actual h = 8

the closed-form congruence table gives the same answers from
(a mod 16, c mod 4) alone, no 2-adic work at run time:
  p =   257 =   1^2 + 4^4   case DIV16    h = 16
  p =    41 =   5^2 + 2^4   case EXACTLY8 h = 8
  p =    17 =   1^2 + 2^4   case NOT8     h = 4
  p =  1297 =   1^2 + 6^4   case NOT8     h = 12
  p =  2657 =  49^2 + 4^4   case DIV16    h = 32
"""


def test_sixteen_rank_2adic_demo_output():
    # the printed sqrt(pi) and w0 are coordinates, so this pins the lift's
    # exact root, not just its verdict
    assert run_demo(ROOT / "demos" / "sixteen_rank_2adic.py") == SIXTEEN_RANK_2ADIC


CLASS_NUMBERS_WALKTHROUGH = """\
p = 41: h(-4p) = 8, so v2(h) = 3
character sum gives 8, routes agree: True
principal form QForm(a=1, b=0, c=41), two-torsion form QForm(a=2, b=2, c=21)
t * t == e: True
2 | h: True   4 | h: True
8 | h by x^2 + 32 y^2:         True
8 | h by (1 + i | p) residue:  True
8 | h by a + b = +-1 mod 8:    True

the same chain across the first primes p = 1 mod 8:
     p    h  v2   8|h
    17    4   2 False
    41    8   3  True
    73    4   2 False
    89   12   2 False
    97    4   2 False
   113    8   3  True
   137    8   3  True
   193    4   2 False
   233   12   2 False
   257   16   4  True
"""


def test_class_numbers_walkthrough_demo_output():
    # pins the printed 8 | h chain, route by route
    assert run_demo(ROOT / "demos" / "class_numbers_walkthrough.py") == CLASS_NUMBERS_WALKTHROUGH


TWO_POWER_DENSITY = """\
9592 primes below 100000; class numbers computed for the 1188 with 8 | h

 k  2^k | h    share  2^k * share
 1     4783  0.49864        0.997
 2     2384  0.24854        0.994
 3     1188  0.12385        0.991
 4      605  0.06307        1.009
 5      300  0.03128        1.001

share of 16 | h among the primes with 8 | h:
  all primes:              605 of   1188 = 0.509
  family a^2 + c^4:         70 of    145 = 0.483
"""


def test_two_power_density_demo_output():
    # default N = 100000; pins the 2^k shares and the family's v2 verdicts
    assert run_demo(ROOT / "demos" / "two_power_density.py") == TWO_POWER_DENSITY
