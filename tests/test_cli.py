"""Command line behavior: exit codes, schemas, byte-stable output."""

import ast
import concurrent.futures
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sixteenrank
from sixteenrank import cli, sievecounts
from sixteenrank.cli import (
    cmd_unit,
    cmd_verify_sixteen,
    main,
    render_density,
    render_unit,
    render_verify,
)

VERIFY_CSV_200 = (
    "p,a,c,case,v2,two_adic_16,agree\n"
    "17,1,2,NOT8,2,,true\n"
    "41,5,2,EXACTLY8,3,false,true\n"
    "97,9,2,NOT8,2,,true\n"
    "137,11,2,EXACTLY8,3,false,true\n"
)

# every byte each command writes, per format (test_verify_csv_golden holds
# verify at 200 as CSV): verify at a limit with no prime (header only,
# "rows": []) and one with null and false cells; unit in each congruence
# case, and at 73, which is not of the form a^2 + c^4; density over the 16
# canonical classes, and over one class given by its pair
GOLDEN = {
    "verify --limit 3 --format text": (
        "primes p = a^2 + c^4 <= 3 (c even): 0\n"
        "  DIV16    (16 | h):        0\n"
        "  EXACTLY8 (8 | h, not 16): 0\n"
        "  NOT8     (8 does not divide h): 0\n"
        "all three routes agree: True\n"
    ),
    "verify --limit 3 --format csv": (
        "p,a,c,case,v2,two_adic_16,agree\n"
    ),
    "verify --limit 3 --format json": (
        "{\n"
        '  "limit": 3,\n'
        '  "tallies": {\n'
        '    "DIV16": 0,\n'
        '    "EXACTLY8": 0,\n'
        '    "NOT8": 0\n'
        "  },\n"
        '  "all_agree": true,\n'
        '  "rows": []\n'
        "}\n"
    ),
    "verify --limit 200 --format text": (
        "primes p = a^2 + c^4 <= 200 (c even): 4\n"
        "  DIV16    (16 | h):        0\n"
        "  EXACTLY8 (8 | h, not 16): 2\n"
        "  NOT8     (8 does not divide h): 2\n"
        "all three routes agree: True\n"
    ),
    "verify --limit 200 --format json": (
        "{\n"
        '  "limit": 200,\n'
        '  "tallies": {\n'
        '    "DIV16": 0,\n'
        '    "EXACTLY8": 2,\n'
        '    "NOT8": 2\n'
        "  },\n"
        '  "all_agree": true,\n'
        '  "rows": [\n'
        "    {\n"
        '      "p": 17,\n'
        '      "a": 1,\n'
        '      "c": 2,\n'
        '      "case": "NOT8",\n'
        '      "v2": 2,\n'
        '      "two_adic_16": null,\n'
        '      "agree": true\n'
        "    },\n"
        "    {\n"
        '      "p": 41,\n'
        '      "a": 5,\n'
        '      "c": 2,\n'
        '      "case": "EXACTLY8",\n'
        '      "v2": 3,\n'
        '      "two_adic_16": false,\n'
        '      "agree": true\n'
        "    },\n"
        "    {\n"
        '      "p": 97,\n'
        '      "a": 9,\n'
        '      "c": 2,\n'
        '      "case": "NOT8",\n'
        '      "v2": 2,\n'
        '      "two_adic_16": null,\n'
        '      "agree": true\n'
        "    },\n"
        "    {\n"
        '      "p": 137,\n'
        '      "a": 11,\n'
        '      "c": 2,\n'
        '      "case": "EXACTLY8",\n'
        '      "v2": 3,\n'
        '      "two_adic_16": false,\n'
        '      "agree": true\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    "unit --p 17 --format text": (
        "p = 17\n"
        "fundamental unit: T = 4, U = 1, norm = -1\n"
        "T mod 16 = 4, U mod 8 = 1\n"
        "h(-4p) = 4\n"
        "unit congruence h = T + p - 1 mod 16: not applicable (8 does not divide h)\n"
        "congruence class: NOT8\n"
    ),
    "unit --p 17 --format csv": (
        "p,t,u,norm,t_mod_16,u_mod_8,h,williams_ok,case,predicted_t_mod_16,predicted_u_mod_8,prediction_match\n"
        "17,4,1,-1,4,1,4,,NOT8,,,\n"
    ),
    "unit --p 17 --format json": (
        "{\n"
        '  "p": 17,\n'
        '  "t": 4,\n'
        '  "u": 1,\n'
        '  "norm": -1,\n'
        '  "t_mod_16": 4,\n'
        '  "u_mod_8": 1,\n'
        '  "h": 4,\n'
        '  "williams_ok": null,\n'
        '  "case": "NOT8",\n'
        '  "predicted_t_mod_16": null,\n'
        '  "predicted_u_mod_8": null,\n'
        '  "prediction_match": null\n'
        "}\n"
    ),
    "unit --p 41 --format text": (
        "p = 41\n"
        "fundamental unit: T = 32, U = 5, norm = -1\n"
        "T mod 16 = 0, U mod 8 = 5\n"
        "h(-4p) = 8\n"
        "unit congruence h = T + p - 1 mod 16: True\n"
        "congruence class: EXACTLY8\n"
        "predicted T mod 16 = 0, U mod 8 in {3, 5}: match = True\n"
    ),
    "unit --p 41 --format csv": (
        "p,t,u,norm,t_mod_16,u_mod_8,h,williams_ok,case,predicted_t_mod_16,predicted_u_mod_8,prediction_match\n"
        "41,32,5,-1,0,5,8,true,EXACTLY8,0,3 5,true\n"
    ),
    "unit --p 41 --format json": (
        "{\n"
        '  "p": 41,\n'
        '  "t": 32,\n'
        '  "u": 5,\n'
        '  "norm": -1,\n'
        '  "t_mod_16": 0,\n'
        '  "u_mod_8": 5,\n'
        '  "h": 8,\n'
        '  "williams_ok": true,\n'
        '  "case": "EXACTLY8",\n'
        '  "predicted_t_mod_16": 0,\n'
        '  "predicted_u_mod_8": [\n'
        "    3,\n"
        "    5\n"
        "  ],\n"
        '  "prediction_match": true\n'
        "}\n"
    ),
    "unit --p 73 --format text": (
        "p = 73\n"
        "fundamental unit: T = 1068, U = 125, norm = -1\n"
        "T mod 16 = 12, U mod 8 = 5\n"
        "h(-4p) = 4\n"
        "unit congruence h = T + p - 1 mod 16: not applicable (8 does not divide h)\n"
        "p is not of the form a^2 + c^4 with c even\n"
    ),
    "unit --p 73 --format csv": (
        "p,t,u,norm,t_mod_16,u_mod_8,h,williams_ok,case,predicted_t_mod_16,predicted_u_mod_8,prediction_match\n"
        "73,1068,125,-1,12,5,4,,,,,\n"
    ),
    "unit --p 73 --format json": (
        "{\n"
        '  "p": 73,\n'
        '  "t": 1068,\n'
        '  "u": 125,\n'
        '  "norm": -1,\n'
        '  "t_mod_16": 12,\n'
        '  "u_mod_8": 5,\n'
        '  "h": 4,\n'
        '  "williams_ok": null,\n'
        '  "case": null,\n'
        '  "predicted_t_mod_16": null,\n'
        '  "predicted_u_mod_8": null,\n'
        '  "prediction_match": null\n'
        "}\n"
    ),
    "unit --p 257 --format text": (
        "p = 257\n"
        "fundamental unit: T = 16, U = 1, norm = -1\n"
        "T mod 16 = 0, U mod 8 = 1\n"
        "h(-4p) = 16\n"
        "unit congruence h = T + p - 1 mod 16: True\n"
        "congruence class: DIV16\n"
        "predicted T mod 16 = 0, U mod 8 in {1, 7}: match = True\n"
    ),
    "unit --p 257 --format csv": (
        "p,t,u,norm,t_mod_16,u_mod_8,h,williams_ok,case,predicted_t_mod_16,predicted_u_mod_8,prediction_match\n"
        "257,16,1,-1,0,1,16,true,DIV16,0,1 7,true\n"
    ),
    "unit --p 257 --format json": (
        "{\n"
        '  "p": 257,\n'
        '  "t": 16,\n'
        '  "u": 1,\n'
        '  "norm": -1,\n'
        '  "t_mod_16": 0,\n'
        '  "u_mod_8": 1,\n'
        '  "h": 16,\n'
        '  "williams_ok": true,\n'
        '  "case": "DIV16",\n'
        '  "predicted_t_mod_16": 0,\n'
        '  "predicted_u_mod_8": [\n'
        "    1,\n"
        "    7\n"
        "  ],\n"
        '  "prediction_match": true\n'
        "}\n"
    ),
    "density --limit 100000 --format text": (
        "X = 100000\n"
        "  a0   q1   c0   q2   lattice  distinct       expected    ratio\n"
        "   1   16    0    4        62        31          67.94   0.9125\n"
        "   1   16    2    4        78        39          67.94   1.1480\n"
        "   3   16    0    4        66        33          67.94   0.9714\n"
        "   3   16    2    4        78        39          67.94   1.1480\n"
        "   5   16    0    4        76        38          67.94   1.1186\n"
        "   5   16    2    4        72        36          67.94   1.0597\n"
        "   7   16    0    4        78        39          67.94   1.1480\n"
        "   7   16    2    4        80        40          67.94   1.1774\n"
        "   9   16    0    4        78        39          67.94   1.1480\n"
        "   9   16    2    4        80        40          67.94   1.1774\n"
        "  11   16    0    4        76        38          67.94   1.1186\n"
        "  11   16    2    4        72        36          67.94   1.0597\n"
        "  13   16    0    4        66        33          67.94   0.9714\n"
        "  13   16    2    4        78        39          67.94   1.1480\n"
        "  15   16    0    4        62        31          67.94   0.9125\n"
        "  15   16    2    4        78        39          67.94   1.1480\n"
    ),
    "density --limit 100000 --format csv": (
        "a0,q1,c0,q2,X,lattice_count,distinct_count,expected,ratio\n"
        "1,16,0,4,100000,62,31,67.94467163804804,0.9125071695140976\n"
        "1,16,2,4,100000,78,39,67.94467163804804,1.147992890679026\n"
        "3,16,0,4,100000,66,33,67.94467163804804,0.9713785998053297\n"
        "3,16,2,4,100000,78,39,67.94467163804804,1.147992890679026\n"
        "5,16,0,4,100000,76,38,67.94467163804804,1.11855717553341\n"
        "5,16,2,4,100000,72,36,67.94467163804804,1.059685745242178\n"
        "7,16,0,4,100000,78,39,67.94467163804804,1.147992890679026\n"
        "7,16,2,4,100000,80,40,67.94467163804804,1.1774286058246421\n"
        "9,16,0,4,100000,78,39,67.94467163804804,1.147992890679026\n"
        "9,16,2,4,100000,80,40,67.94467163804804,1.1774286058246421\n"
        "11,16,0,4,100000,76,38,67.94467163804804,1.11855717553341\n"
        "11,16,2,4,100000,72,36,67.94467163804804,1.059685745242178\n"
        "13,16,0,4,100000,66,33,67.94467163804804,0.9713785998053297\n"
        "13,16,2,4,100000,78,39,67.94467163804804,1.147992890679026\n"
        "15,16,0,4,100000,62,31,67.94467163804804,0.9125071695140976\n"
        "15,16,2,4,100000,78,39,67.94467163804804,1.147992890679026\n"
    ),
    "density --limit 100000 --format json": (
        '{\n  "X": 100000,\n  "rows": [\n    {\n      "a0": 1,\n      "q1": 16,\n'
        '      "c0": 0,\n      "q2": 4,\n      "X": 100000,\n      "lattice_count": 62,\n'
        '      "distinct_count": 31,\n      "expected": 67.94467163804804,\n'
        '      "ratio": 0.9125071695140976\n    },\n    {\n      "a0": 1,\n'
        '      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n      "X": 100000,\n'
        '      "lattice_count": 78,\n      "distinct_count": 39,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.147992890679026\n    },\n'
        '    {\n      "a0": 3,\n      "q1": 16,\n      "c0": 0,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 66,\n      "distinct_count": 33,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 0.9713785998053297\n    },\n'
        '    {\n      "a0": 3,\n      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 78,\n      "distinct_count": 39,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.147992890679026\n    },\n'
        '    {\n      "a0": 5,\n      "q1": 16,\n      "c0": 0,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 76,\n      "distinct_count": 38,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.11855717553341\n    },\n'
        '    {\n      "a0": 5,\n      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 72,\n      "distinct_count": 36,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.059685745242178\n    },\n'
        '    {\n      "a0": 7,\n      "q1": 16,\n      "c0": 0,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 78,\n      "distinct_count": 39,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.147992890679026\n    },\n'
        '    {\n      "a0": 7,\n      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 80,\n      "distinct_count": 40,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.1774286058246421\n    },\n'
        '    {\n      "a0": 9,\n      "q1": 16,\n      "c0": 0,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 78,\n      "distinct_count": 39,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.147992890679026\n    },\n'
        '    {\n      "a0": 9,\n      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 80,\n      "distinct_count": 40,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.1774286058246421\n    },\n'
        '    {\n      "a0": 11,\n      "q1": 16,\n      "c0": 0,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 76,\n      "distinct_count": 38,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.11855717553341\n    },\n'
        '    {\n      "a0": 11,\n      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 72,\n      "distinct_count": 36,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.059685745242178\n    },\n'
        '    {\n      "a0": 13,\n      "q1": 16,\n      "c0": 0,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 66,\n      "distinct_count": 33,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 0.9713785998053297\n    },\n'
        '    {\n      "a0": 13,\n      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 78,\n      "distinct_count": 39,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.147992890679026\n    },\n'
        '    {\n      "a0": 15,\n      "q1": 16,\n      "c0": 0,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 62,\n      "distinct_count": 31,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 0.9125071695140976\n    },\n'
        '    {\n      "a0": 15,\n      "q1": 16,\n      "c0": 2,\n      "q2": 4,\n'
        '      "X": 100000,\n      "lattice_count": 78,\n      "distinct_count": 39,\n'
        '      "expected": 67.94467163804804,\n      "ratio": 1.147992890679026\n    }\n'
        "  ]\n}\n"
    ),
    "density --limit 100000 --a0 1 --q1 16 --c0 0 --q2 4 --format text": (
        "X = 100000\n"
        "  a0   q1   c0   q2   lattice  distinct       expected    ratio\n"
        "   1   16    0    4        62        31          67.94   0.9125\n"
    ),
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_csv_golden(capsys):
    code, out, err = run(capsys, ["verify", "--limit", "200", "--format", "csv"])
    assert code == 0 and err == ""
    assert out == VERIFY_CSV_200


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_output_bytes_golden(capsys, argv):
    code, out, err = run(capsys, argv.split())
    assert code == 0 and err == ""
    assert out == GOLDEN[argv]


def test_verify_output_is_reproducible(capsys):
    first = run(capsys, ["verify", "--limit", "3000", "--format", "json"])
    second = run(capsys, ["verify", "--limit", "3000", "--format", "json"])
    assert first == second
    doc = json.loads(first[1])
    assert set(doc) == {"limit", "tallies", "all_agree", "rows"}
    assert doc["all_agree"] is True
    assert set(doc["tallies"]) == {"DIV16", "EXACTLY8", "NOT8"}
    assert sum(doc["tallies"].values()) == len(doc["rows"])
    for row in doc["rows"]:
        assert set(row) == {"p", "a", "c", "case", "v2", "two_adic_16", "agree"}
        assert row["p"] == row["a"] ** 2 + row["c"] ** 4
        if row["case"] == "NOT8":
            assert row["two_adic_16"] is None


def assert_disagreement(capsys, limit, wrong):
    # the rows of the primes in wrong, and only those, disagree; verify
    # still exits 0 and prints the disagreement
    report = cmd_verify_sixteen(limit)
    assert [row.p for row in report.rows if not row.agree] == wrong
    assert report.all_agree is False
    code, out, err = run(capsys, ["verify", "--limit", str(limit)])
    assert code == 0 and err == ""
    assert out.endswith("all three routes agree: False\n")


def test_verify_reports_a_class_number_off_by_one(capsys, monkeypatch):
    enum = cli.class_number_enum

    def off(p):
        data = enum(p)
        return dataclasses.replace(data, v2=data.v2 + 1) if p == 41 else data

    monkeypatch.setattr(cli, "class_number_enum", off)
    assert_disagreement(capsys, 200, [41])


def test_verify_reports_a_negated_two_adic_verdict(capsys, monkeypatch):
    # every DIV16 and EXACTLY8 row runs the 2-adic route, and only those
    rows = cmd_verify_sixteen(3000).rows
    assert {"DIV16", "EXACTLY8"} <= {row.case for row in rows}
    divides = cli.sixteen_divides
    monkeypatch.setattr(cli, "sixteen_divides", lambda w: not divides(w))
    assert_disagreement(capsys, 3000, [row.p for row in rows if row.case != "NOT8"])


def test_verify_text_summary(capsys):
    code, out, _ = run(capsys, ["verify", "--limit", "200"])
    assert code == 0
    assert "4" in out and "all three routes agree: True" in out


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, ["verify", "--limit", "200", "--format", "csv", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == VERIFY_CSV_200


def test_out_flag_reports_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "report.csv"
    code, out, err = run(capsys, ["verify", "--limit", "200", "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.exists()


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was created")


def test_threads_above_cpu_count_refused(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    code, out, err = run(capsys, ["verify", "--limit", "200", "--threads", str(cores + 1)])
    assert code == 3
    assert out == ""
    assert f"capped at the {cores} CPUs" in err


def test_threads_capped_at_the_cpus_this_process_may_use(capsys, monkeypatch):
    # taskset or a container may allow fewer CPUs than the machine has; where
    # the platform cannot tell, the machine's count is the cap
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, out, err = run(capsys, ["verify", "--limit", "200", "--threads", "2"])
    assert code == 3 and out == ""
    assert "capped at the 1 CPUs" in err
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, out, err = run(capsys, ["verify", "--limit", "200", "--threads", "2"])
    assert code == 3 and out == ""
    assert "capped at the 1 CPUs" in err


def test_verify_budget_refusal(capsys):
    code, out, err = run(capsys, ["verify", "--limit", "3000000"])
    assert code == 3
    assert out == ""
    assert "refused:" in err


def test_density_matches_library(capsys):
    from sixteenrank import CongruencePair, count_report

    code, out, err = run(
        capsys,
        ["density", "--limit", "20000", "--a0", "1", "--q1", "16",
         "--c0", "0", "--q2", "4", "--format", "csv"],
    )
    assert code == 0
    report = count_report(20000, pairs=[CongruencePair(1, 16, 0, 4)])
    assert out == render_density(report, "csv")


def test_density_refuses_partial_pair(capsys):
    code, _, err = run(capsys, ["density", "--limit", "1000", "--a0", "1"])
    assert code == 3
    assert "provide all" in err


def test_density_refuses_inadmissible_pair(capsys):
    code, _, err = run(
        capsys,
        ["density", "--limit", "1000", "--a0", "0", "--q1", "2",
         "--c0", "0", "--q2", "2"],
    )
    assert code == 3
    assert "not invertible" in err
    # a class that is not one is refused with the record's own reason, and
    # a modulus above the command's budget before any class is built
    for a0, q1, why in (("16", "16", "residues must satisfy 0 <= a0 < q1, 0 <= c0 < q2"),
                        ("0", "0", "moduli must be >= 1"),
                        ("0", "10001", "moduli budget is q1, q2 <= 10000")):
        code, out, err = run(
            capsys,
            ["density", "--limit", "1000", "--a0", a0, "--q1", q1, "--c0", "0", "--q2", "4"],
        )
        assert (code, out, err) == (3, "", f"refused: {why}\n")


@pytest.mark.parametrize(
    "limit, pair_args, lift",
    [
        ("300000000", ("2", "15", "1", "3"), "2^2 + 1^4 = 5 mod 15"),
        ("10000000000", ("2", "15", "1", "3"), "2^2 + 1^4 = 5 mod 15"),
        # moduli at the cap: q = 9999 * 9998 has about 10^8 lifts
        ("10000000000", ("2", "9999", "1", "9998"), "2^2 + 99981^4 = 34383127 mod 99970002"),
    ],
    ids=["300000000", "10000000000", "modulus-cap"],
)
def test_density_refuses_inadmissible_pair_before_any_walk(capsys, monkeypatch, limit,
                                                           pair_args, lift):
    def no_walk(x, pair):
        raise AssertionError("a row was walked before the refusal")

    monkeypatch.setattr(sievecounts, "prime_rows", no_walk)
    a0, q1, c0, q2 = pair_args
    code, out, err = run(
        capsys,
        ["density", "--limit", limit, "--a0", a0, "--q1", q1, "--c0", c0, "--q2", q2],
    )
    assert (code, out) == (3, "")
    assert err == f"refused: pair is not admissible: {lift} is not invertible\n"


def test_density_refuses_tiny_limit(capsys):
    code, _, err = run(capsys, ["density", "--limit", "2"])
    assert code == 3
    assert "--limit >= 3" in err


def test_density_library_layer_allows_tiny_x():
    # the >= 3 floor guards the command surface; the library itself
    # answers X = 2 with empty counts
    from sixteenrank import CongruencePair, count_report

    rows = count_report(2).rows
    assert all(r.lattice_count == 0 and r.distinct_count == 0 for r in rows)
    row = count_report(41, [CongruencePair(5, 16, 2, 4)]).rows[0]
    assert row.lattice_count == 2  # (5, 2) and (5, -2) give 41 itself


def test_unit_text_output(capsys):
    code, out, _ = run(capsys, ["unit", "--p", "41"])
    assert code == 0
    assert "T = 32, U = 5" in out
    assert "h(-4p) = 8" in out
    assert "match = True" in out


def test_unit_json_schema(capsys):
    code, out, _ = run(capsys, ["unit", "--p", "257", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 257
    assert (doc["t"], doc["u"], doc["norm"]) == (16, 1, -1)
    assert doc["h"] == 16
    assert doc["williams_ok"] is True
    assert doc["case"] == "DIV16"
    assert doc["prediction_match"] is True


def test_unit_without_form_representation(capsys):
    # 113 = (-7)^2 + 8^2 but 8 is not a square, so no a^2 + c^4 shape
    code, out, _ = run(capsys, ["unit", "--p", "113", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] is None
    assert doc["prediction_match"] is None
    assert doc["williams_ok"] is True  # h = 8


def test_unit_refusal(capsys):
    code, _, err = run(capsys, ["unit", "--p", "13"])
    assert code == 3
    assert "1 mod 8" in err
    # the least prime = 1 mod 8 above the unit budget
    code, out, err = run(capsys, ["unit", "--p", "10000121"])
    assert (code, out, err) == (3, "", "refused: unit budget is p <= 10000000, got 10000121\n")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # --limit is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unit"])  # --p is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["density", "--limit", "1000", "--mode", "distinct"])  # no such option
    assert exc.value.code == 2


def test_threaded_sweep_matches_serial():
    serial = cmd_verify_sixteen(5000, threads=1)
    threaded = cmd_verify_sixteen(5000, threads=2)
    assert serial == threaded


def test_threads_below_one_refused(capsys):
    code, out, err = run(capsys, ["verify", "--limit", "200", "--threads", "0"])
    assert code == 3 and out == ""
    assert "--threads must be >= 1" in err


def test_renderers_cover_all_formats():
    rep = cmd_verify_sixteen(200)
    for fmt in ("csv", "json", "text"):
        assert render_verify(rep, fmt).endswith("\n")
    unit = cmd_unit(41)
    for fmt in ("csv", "json", "text"):
        assert render_unit(unit, fmt).endswith("\n")


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(sixteenrank.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_cli_import_leaves_scipy_unloaded():
    # nor the process pool's modules, which only verify --threads N > 1 needs
    proc = run_python(
        "-c",
        "import sys, sixteenrank.cli\n"
        "print([m in sys.modules for m in "
        "('scipy', 'multiprocessing', 'concurrent.futures.process')])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False]\n"


def test_density_leaves_scipy_unloaded():
    proc = run_python(
        "-c",
        "import io, sys, contextlib, sixteenrank.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = sixteenrank.cli.main(['density', '--limit', '100000'])\n"
        "print(code, 'scipy' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"


def test_module_run_writes_no_warning():
    proc = run_python("-m", "sixteenrank.cli", "unit", "--p", "41")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("p = 41\n")


def test_all_exports_resolve():
    # a name left in __all__ after its function is deleted breaks `import *`
    for name in sixteenrank.__all__:
        assert hasattr(sixteenrank, name), name
    proc = run_python("-c", "from sixteenrank import *")
    assert proc.returncode == 0, proc.stderr


def test_every_export_has_a_caller_outside_its_tests():
    # a public name, or a public method or property of an exported class,
    # must be read by the package itself, a demo, or the acceptance
    # criteria; a name only its own unit test reads is dead
    root = Path(__file__).resolve().parents[1]
    src = Path(sixteenrank.__file__).parent
    files = [f for f in src.glob("*.py") if f.name != "__init__.py"]
    files += [*(root / "demos").glob("*.py"), root / "tests" / "test_acceptance.py"]
    loaded = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    names = [(name, name) for name in sixteenrank.__all__]
    for name in sixteenrank.__all__:
        obj = getattr(sixteenrank, name)
        if isinstance(obj, type):
            names += [
                (f"{name}.{attr}", attr) for attr, value in vars(obj).items()
                if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(
                    value, (property, classmethod, staticmethod)))
            ]
    assert [full for full, name in names if name not in loaded] == []
