"""Checks of the benchmark's own code, on reduced sizes.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of the checkout, like run.py.
"""

import dataclasses
import hashlib
import json

import pytest

import run

COUNTED = (
    "classgroup.class_number_enum",
    "gauss2adic.sixteen_divides",
    "sievecounts.count_primes",
    "arith.is_prime",
)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--limit", "20000"],
        ["density", "--limit", "1000000"],
        # just above the sieve limit, so every candidate goes to Miller-Rabin
        ["density", "--limit", "300000001", "--a0", "1", "--q1", "16",
         "--c0", "0", "--q2", "4"],
    ],
    ids=["verify", "density_sieve", "density_mr"],
)
def test_traced_counts_repeat_and_stdout_is_unchanged(argv):
    plain = run.run_call(argv)
    first, second = run.run_call(argv, trace=True), run.run_call(argv, trace=True)
    assert plain.returncode == first.returncode == second.returncode == 0
    assert first.stdout == second.stdout == plain.stdout
    assert 0 < plain.setup_s < plain.wall_s
    for name in COUNTED:
        assert first.trace[name]["calls"] == second.trace[name]["calls"], name
    if argv[0] == "verify":
        rows = run.primes_handled(plain)
        assert first.trace["cli.form_witnesses"]["count"] == rows
        assert first.trace["classgroup.class_number_enum"]["calls"] == rows
        assert first.trace["gauss2adic.sixteen_divides"]["calls"] > 0
    else:
        count_primes = first.trace["sievecounts.count_primes"]
        if "--a0" in argv:
            assert count_primes["calls"] == 2
            assert first.trace["arith.is_prime"]["calls"] > count_primes["lattice_primes"] > 0
        else:
            assert count_primes["calls"] == 32
            flags = first.trace["arith.odd_prime_flags"]
            assert (flags["hits"], flags["misses"]) == (31, 1)
    imports = first.trace["import"]
    assert imports["total_s"] > imports["numpy_s"] > 0


def test_check_flags_changed_stdout():
    call = run.run_call(["verify", "--limit", "200"])
    refs = {"verify --limit 200": hashlib.sha256(call.stdout).hexdigest()}
    assert run.check(call, refs) == []
    assert run.check(dataclasses.replace(call, stdout=call.stdout + b"\n"), refs)
    assert run.check(dataclasses.replace(call, returncode=1), refs)
    assert run.check(call, {})

    disagree = call.stdout.replace(b"agree: True", b"agree: False")
    assert disagree != call.stdout
    refs_disagree = {"verify --limit 200": hashlib.sha256(disagree).hexdigest()}
    assert run.check(dataclasses.replace(call, stdout=disagree), refs_disagree)


def test_every_workload_argv_has_a_reference():
    refs = json.loads(run.REFERENCES.read_text())
    for workload in run.WORKLOADS:
        for seed in range(40):
            argv = run.WORKLOADS[workload](run.random.Random(seed))
            assert " ".join(argv) in refs
        for argv in run.all_argvs(workload):
            assert " ".join(argv) in refs
