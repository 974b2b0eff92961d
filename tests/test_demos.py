"""Each script under demos/ runs to its end without writing to stderr, and
the 2-adic demo's stdout is pinned byte for byte."""

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
