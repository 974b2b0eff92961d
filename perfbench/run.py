"""Benchmark of the sixteenrank command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the root of a checkout; the package is used from ``src/``
(``PYTHONPATH=src``), not from an installed copy.  Each CLI call is a
fresh interpreter running ``sixteenrank.cli.main(sys.argv[1:])``, because
every real user pays import and cold caches on every call.  Calls run
one at a time from this process (a closed loop with one client) until
the next call could end past ``--seconds``, judged by the longest call
so far; at least one call always runs.  Each call also reports on stderr
when its ``import sixteenrank.cli`` returned, which gives ``setup_s``.
After each call a fresh interpreter runs REFERENCE_CODE; ``wall_rel`` and
``cpu_rel`` are the call's medians over the reference's.

Every call's stdout is checked against the sha256 recorded in
``references.json`` for its argv.  A call fails when the hash differs,
when it exits non-zero, or when ``verify`` prints
``all three routes agree: False``.

``--trace 0`` prints the end-to-end metrics (those in the JSON line are
END_TO_END, the rest of the table is for reading), ``--trace 1`` the per-layer
metrics of tracer.py, plus ``trace.overhead_s`` from untraced and traced
calls run alternately.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  ``--record`` rewrites
``references.json`` from one call of every argv the workloads can make.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "references.json"

CALL_TIMEOUT_S = 150.0

# once `import sixteenrank.cli` returns, the call writes a monotonic clock
# reading to stderr, which the parent compares with its own reading taken
# just before the spawn; stdout is left to the CLI
SETUP_PREFIX = "perfbench-setup "
CALL_CODE = (
    "import sys, time, sixteenrank.cli; "
    f"sys.stderr.write('{SETUP_PREFIX}%r\\n' % time.monotonic()); "
    "sys.exit(sixteenrank.cli.main(sys.argv[1:]))"
)
# A fixed start-up of the third-party modules the package imports, none of
# the package's own code: the yardstick of wall_rel and cpu_rel.  This
# host's speed drifts by a quarter or more over minutes, and it drifts for
# this start-up as for a call, so the ratio holds steady where seconds
# do not.
REFERENCE_CODE = "import numpy, scipy.integrate"
TRACE_CODE = (
    "import sys; sys.path.insert(0, 'perfbench'); import tracer; "
    "sys.exit(tracer.main(sys.argv[1:]))"
)
TRACE_PREFIX = "perfbench-trace "

CANONICAL_CLASSES = [(a0, c0) for a0 in range(1, 16, 2) for c0 in (0, 2)]


def _one_class_argv(a0: int, c0: int) -> list[str]:
    return ["density", "--limit", "1000000000",
            "--a0", str(a0), "--q1", "16", "--c0", str(c0), "--q2", "4"]


# name -> function of the seeded generator returning the CLI argv;
# verify_pool is left out of BENCHMARK.json, see README.md
WORKLOADS = {
    "verify_sweep": lambda rng: ["verify", "--limit", "1000000"],
    "verify_pool": lambda rng: ["verify", "--limit", "1000000", "--threads", "2"],
    "density_sieve": lambda rng: ["density", "--limit", "300000000"],
    "density_mr": lambda rng: _one_class_argv(*rng.choice(CANONICAL_CLASSES)),
}


def all_argvs(workload: str) -> list[list[str]]:
    """Every argv the workload can make, whatever the seed."""
    if workload == "density_mr":
        return [_one_class_argv(a0, c0) for a0, c0 in CANONICAL_CLASSES]
    return [WORKLOADS[workload](random.Random(0))]


@dataclass(eq=False)
class Call:
    argv: list[str]
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    start: float = 0.0
    setup_s: float | None = None
    trace: dict = field(default_factory=dict)


def spawn(code: str, argv: list[str], python_flags: tuple[str, ...] = ()) -> Call:
    """Run one interpreter to its end and take its rusage from os.wait4.

    wait4 gives the call's own usage, including the pool workers it
    waited for; getrusage(RUSAGE_CHILDREN) would give the maximum RSS of
    every child so far instead.
    """
    cmd = [sys.executable, *python_flags, "-c", code, *argv]
    start = time.monotonic()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    killer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        # interrupted: the call and its pool workers go down with this process
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        argv=argv,
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out,
        stderr=err[0] if err else b"",
        start=start,
    )


def run_call(argv: list[str], trace: bool = False) -> Call:
    """One CLI call; a traced call also parses its spans and import times."""
    if not trace:
        call = spawn(CALL_CODE, argv)
        for line in call.stderr.decode(errors="replace").splitlines():
            if line.startswith(SETUP_PREFIX):
                call.setup_s = float(line[len(SETUP_PREFIX):]) - call.start
        return call
    call = spawn(TRACE_CODE, argv, ("-X", "importtime"))
    lines = call.stderr.decode(errors="replace").splitlines()
    for line in lines:
        if line.startswith(TRACE_PREFIX):
            call.trace = json.loads(line[len(TRACE_PREFIX):])
    call.trace["import"] = import_times(lines)
    return call


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)")


def import_times(lines: list[str]) -> dict:
    """Seconds of import self time from -X importtime: all, scipy, numpy."""
    total = scipy = numpy = 0
    for line in lines:
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        us, module = int(m.group(1)), m.group(2)
        total += us
        top = module.split(".")[0]
        if top == "scipy":
            scipy += us
        elif top == "numpy":
            numpy += us
    return {"total_s": total / 1e6, "scipy_s": scipy / 1e6, "numpy_s": numpy / 1e6}


def check(call: Call, references: dict) -> list[str]:
    """Reasons the call failed; empty when its output is correct."""
    problems = []
    if call.returncode != 0:
        problems.append(f"exit status {call.returncode}")
    key = " ".join(call.argv)
    digest = hashlib.sha256(call.stdout).hexdigest()
    if key not in references:
        problems.append(f"no reference output for {key!r}")
    elif digest != references[key]:
        problems.append(f"stdout sha256 {digest} differs from the reference")
    if call.argv[0] == "verify" and b"all three routes agree: False" in call.stdout:
        problems.append("verify reports that the three routes disagree")
    return problems


def primes_handled(call: Call) -> int:
    """verify: rows of the sweep; density: distinct primes over the classes."""
    text = call.stdout.decode()
    if call.argv[0] == "verify":
        return int(re.search(r"\(c even\): (\d+)", text).group(1))
    rows = text.splitlines()[2:]
    return sum(int(row.split()[5]) for row in rows)


def measure(seconds: float, one_round) -> list:
    """Repeat one_round until the next round could end past `seconds`,
    judged by the longest round so far."""
    rounds = []
    longest = 0.0
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(one_round())
        longest = max(longest, time.perf_counter() - r0)
        if time.perf_counter() - t0 + longest > seconds:
            return rounds


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def reference() -> Call:
    call = spawn(REFERENCE_CODE, [])
    if call.returncode != 0:
        sys.stderr.write(call.stderr.decode(errors="replace"))
        raise SystemExit(f"the reference start-up {REFERENCE_CODE!r} failed")
    return call


# the metrics of the JSON line with --trace 0, as in BENCHMARK.json
END_TO_END = ("wall_rel", "cpu_rel", "setup_s", "peak_rss_mb")


def end_to_end(calls: list[Call], refs: list[Call], ok: list[Call]) -> dict:
    wall = _median([c.wall_s for c in calls])
    cpu = _median([c.cpu_s for c in calls])
    ref_wall = _median([r.wall_s for r in refs])
    ref_cpu = _median([r.cpu_s for r in refs])
    return {
        "wall_rel": (wall / ref_wall, "ratio"),
        "cpu_rel": (cpu / ref_cpu, "ratio"),
        "setup_s": (_median([c.setup_s for c in calls if c.setup_s is not None]), "s"),
        "peak_rss_mb": (_median([c.peak_rss_mb for c in calls]), "MB"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "primes_per_s": (_median([primes_handled(c) / c.wall_s for c in ok]), "1/s"),
        "reference.wall_s": (ref_wall, "s"),
        "reference.cpu_s": (ref_cpu, "s"),
    }


# per-layer metric -> unit; each is "<span>.<field>" of a traced call's
# summary (tracer.py, plus the "import" pseudo-span) except the two below
LAYER_METRICS = {
    "classgroup.class_number_enum.calls": "count",
    "classgroup.class_number_enum.self_s": "s",
    "arith.odd_prime_flags.s": "s",
    "arith.odd_prime_flags.hit_ratio": "ratio",
    "arith.is_prime.calls": "count",
    "arith.is_prime.s": "s",
    "sievecounts.count_primes.calls": "count",
    "sievecounts.count_primes.self_s": "s",
    "sievecounts.represented_primes.s": "s",
    "sievecounts.mr_tests_per_prime": "ratio",
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cli.main.s": "s",
    "cli.form_witnesses.s": "s",
    "cli.form_witnesses.count": "count",
    "cli.render.s": "s",
    "arith.primes_up_to.s": "s",
    "arith.primes_up_to.hit_ratio": "ratio",
    "arith.decompose_two_squares.s": "s",
    "gauss2adic.sixteen_divides.calls": "count",
    "gauss2adic.sixteen_divides.s": "s",
    "trace.overhead_s": "s",
}


def layer_value(spans: dict, metric: str) -> float:
    def field(span, key):
        return spans.get(span, {}).get(key, 0)

    if metric == "sievecounts.mr_tests_per_prime":
        found = field("sievecounts.count_primes", "lattice_primes")
        return field("arith.is_prime", "calls") / found if found else 0.0
    return field(*metric.rsplit(".", 1))


def per_layer(traced: list[Call], untraced: list[Call]) -> dict:
    metrics = {
        metric: (_median([layer_value(c.trace, metric) for c in traced]), unit)
        for metric, unit in LAYER_METRICS.items()
    }
    metrics["trace.overhead_s"] = (
        _median([c.wall_s for c in traced]) - _median([c.wall_s for c in untraced]), "s")
    return metrics


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        **versions,
    }


def record() -> None:
    """Write the sha256 of the stdout of every workload argv."""
    refs = {}
    for workload in WORKLOADS:
        for argv in all_argvs(workload):
            call = run_call(argv)
            if call.returncode != 0:
                raise SystemExit(f"{' '.join(argv)} exited {call.returncode}")
            refs[" ".join(argv)] = hashlib.sha256(call.stdout).hexdigest()
            print(f"{call.wall_s:8.2f} s  {' '.join(argv)}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite references.json and exit")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "verify_pool" and min(os.cpu_count() or 1,
                                              len(os.sched_getaffinity(0))) < 2:
        print("verify_pool skipped: it runs --threads 2 and this machine has "
              "fewer than 2 cores", file=sys.stderr)
        return 3
    if not (ROOT / "src" / "sixteenrank").is_dir():
        print(f"no sixteenrank package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    cli_argv = WORKLOADS[args.workload](random.Random(args.seed))

    info = machine()
    print("machine: " + json.dumps(info))
    print(f"workload {args.workload} seed {args.seed}: sixteenrank {' '.join(cli_argv)}")

    if args.trace:
        pairs = measure(args.seconds, lambda: (run_call(cli_argv), run_call(cli_argv, True)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        calls = untraced + traced
    else:
        rounds = measure(args.seconds, lambda: (run_call(cli_argv), reference()))
        calls = [c for c, _ in rounds]
        refs = [r for _, r in rounds]
    ok = []
    for call in calls:
        problems = check(call, references)
        if problems:
            print(f"FAILED call: {'; '.join(problems)}", file=sys.stderr)
        else:
            ok.append(call)
    failed = len(calls) - len(ok)
    if args.trace:
        metrics = per_layer([c for c in traced if c in ok], untraced)
    else:
        metrics = end_to_end(calls, refs, ok)

    print(f"{len(calls)} calls, {failed} failed; wall_s of each: "
          + " ".join(f"{c.wall_s:.3f}" for c in calls))
    print("medians:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':<40} {failed / len(calls):>16.6f} 1")
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if args.trace or name in END_TO_END},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
