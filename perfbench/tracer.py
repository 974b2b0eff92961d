"""Traced run of the sixteenrank command line, used by run.py --trace 1.

Started as ``python -X importtime -c "...; tracer.main(argv)"`` with
``PYTHONPATH=src``.  It replaces each traced public function with a
timing wrapper, in its defining module and in every package module that
imported it by name, runs ``cli.main(argv)`` and, after it returns,
writes one summary line to stderr: ``perfbench-trace <json>``.  stdout
is left to the CLI, byte for byte.

Spans (name, parent span, start, end) are kept in flat arrays in memory
and reduced to per-name call counts, total and self time only at the end.
Pool workers forked by ``verify --threads`` inherit the wrappers, but
their spans stay in the workers and are never written: a traced
``verify_pool`` call reports the cli-level spans only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import sixteenrank
from sixteenrank import arith, classgroup, cli, gauss2adic, realquad, sievecounts

# span name -> (defining module, function names); several functions may
# share one span name
TRACED = {
    "cli.main": (cli, ("main",)),
    "cli.form_witnesses": (cli, ("form_witnesses",)),
    "cli.render": (cli, ("render_verify", "render_density")),
    "classgroup.class_number_enum": (classgroup, ("class_number_enum",)),
    "gauss2adic.sixteen_divides": (gauss2adic, ("sixteen_divides",)),
    "arith.is_prime": (arith, ("is_prime",)),
    "arith.primes_up_to": (arith, ("primes_up_to",)),
    "arith.odd_prime_flags": (arith, ("odd_prime_flags",)),
    "arith.decompose_two_squares": (arith, ("decompose_two_squares",)),
    "sievecounts.count_primes": (sievecounts, ("count_primes",)),
    "sievecounts.represented_primes": (sievecounts, ("represented_primes",)),
}
# modules searched for by-name imports of the traced functions
MODULES = (sixteenrank, arith, classgroup, cli, gauss2adic, realquad, sievecounts)


class Spans:
    """Spans of one process, in flat arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.open: list[int] = []
        # per-name sums of a measure of the results, see MEASURES
        self.measures: dict[str, dict[str, int]] = {}

    def wrap(self, name: str, fn, measure=None):
        """fn, recording a span per call; measure(result, args, kwargs)
        returns a (field, amount) pair summed into the name's summary."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.open[-1] if self.open else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self.open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.open.pop()
            if measure is not None:
                key, amount = measure(result, args, kwargs)
                sums = self.measures.setdefault(name, {})
                sums[key] = sums.get(key, 0) + amount
            return result

        return traced

    def summary(self) -> dict:
        """Per-name calls, total seconds and self seconds."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for i, name_id in enumerate(self.name):
            row = out[self.names[name_id]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        for name, sums in self.measures.items():
            out[name].update(sums)
        return out


def _lattice_primes(result, args, kwargs) -> tuple[str, int]:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "lattice")
    return "lattice_primes", result if mode == "lattice" else 0


# primes found: the witnesses of the family enumeration, and the
# lattice-mode counts of the lattice walks
MEASURES = {
    "cli.form_witnesses": lambda result, args, kwargs: ("count", len(result)),
    "sievecounts.count_primes": _lattice_primes,
}


def install(spans: Spans) -> None:
    """Wrap every traced function wherever a package module binds it."""
    for name, (module, attrs) in TRACED.items():
        for attr in attrs:
            fn = getattr(module, attr)
            wrapped = spans.wrap(name, fn, MEASURES.get(name))
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    spans = Spans()
    install(spans)
    rc = cli.main(argv)
    summary = spans.summary()
    for name, (module, attrs) in TRACED.items():
        info_of = getattr(getattr(module, attrs[0]).__wrapped__, "cache_info", None)
        if info_of is not None:
            info = info_of()
            lookups = info.hits + info.misses
            summary[name].update(hits=info.hits, misses=info.misses,
                                 hit_ratio=info.hits / lookups if lookups else 0.0)
    sys.stdout.flush()
    sys.stderr.write("perfbench-trace " + json.dumps(summary) + "\n")
    return rc
