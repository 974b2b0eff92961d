"""Command line for the verification lab.

Three subcommands:

  verify   sweep all primes p = a^2 + c^4 <= limit (c even), compare the
           congruence classification, the 2-adic square test, and the
           2-valuation of the class number computed by form enumeration
  density  count lattice/distinct primes per congruence class against
           the expected main term
  unit     fundamental unit of Q(sqrt(p)) with the h = T + p - 1 mod 16
           check and the congruence prediction from p = a^2 + c^4

Exit status: 0 on success, 3 when a request is refused (precondition or
budget), 2 on argparse usage errors, 1 on internal failure or an --out
file that cannot be written.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, fields

from .arith import PrimeWitness, decompose_two_squares
from .classgroup import class_number_enum
from .errors import Refusal
from .gauss2adic import RankCase, sixteen_divides, sixteen_rank_case
from .realquad import fundamental_unit, predict_unit_congruences, williams_check
from .sievecounts import ClassCount, CongruencePair, CountReport, count_report, prime_rows

VERIFY_BUDGET = 2 * 10**6
_CLI_MODULUS_CAP = 10**4


@dataclass(frozen=True)
class VerifyRow:
    p: int
    a: int
    c: int
    case: str
    v2: int
    two_adic_16: bool | None
    agree: bool


@dataclass(frozen=True)
class VerifyReport:
    limit: int
    rows: tuple[VerifyRow, ...]
    tallies: dict
    all_agree: bool


def form_witnesses(limit: int) -> list[tuple[int, int, int]]:
    """All (p, a, c) with p = a^2 + c^4 <= limit prime, a odd > 0, c even > 0.

    Each such prime has exactly one representation of this shape, so the
    list, sorted by p, enumerates the family without repeats.
    """
    return sorted(
        (a * a + c**4, a, c)
        for c, row in prime_rows(limit, CongruencePair(1, 2, 0, 2)) if c > 0
        for a in row.tolist() if a > 0
    )


def _verify_row(item: tuple[int, int, int]) -> VerifyRow:
    p, a, c = item
    case = sixteen_rank_case(a, c)
    data = class_number_enum(p)
    agree = RankCase.of_v2(data.v2) is case
    two_adic = None
    if case is not RankCase.NOT8:
        # the walk's (a, c) is p's one sum of two squares; sign a to 1 mod 4
        w = PrimeWitness(p=p, a=a if a % 4 == 1 else -a, b=c * c, c=c)
        two_adic = sixteen_divides(w)
        agree = agree and two_adic == (case is RankCase.DIV16)
    return VerifyRow(
        p=p, a=a, c=c, case=case.value, v2=data.v2, two_adic_16=two_adic, agree=agree
    )


def cmd_verify_sixteen(limit: int, threads: int = 1) -> VerifyReport:
    """Run the three-route 16-rank comparison over the family up to limit."""
    if limit > VERIFY_BUDGET:
        raise Refusal(
            f"verify budget is limit <= {VERIFY_BUDGET}; rerun with a smaller --limit"
        )
    if threads < 1:
        raise Refusal(f"--threads must be >= 1, got {threads}")
    # the CPUs this process may run on, which taskset or a container can
    # restrict below the machine's count
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    if threads > cores:
        raise Refusal(f"--threads is capped at the {cores} CPUs of this machine, got {threads}")
    witnesses = form_witnesses(limit)
    if threads > 1 and len(witnesses) > 1:
        # imported here: it loads multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, len(witnesses) // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_verify_row, witnesses, chunksize=size))
    else:
        rows = [_verify_row(item) for item in witnesses]
    tallies = {case.value: 0 for case in RankCase}
    for row in rows:
        tallies[row.case] += 1
    return VerifyReport(
        limit=limit,
        rows=tuple(rows),
        tallies=tallies,
        all_agree=all(row.agree for row in rows),
    )


@dataclass(frozen=True)
class UnitReport:
    p: int
    t: int
    u: int
    norm: int
    t_mod_16: int
    u_mod_8: int
    h: int
    williams_ok: bool | None
    case: str | None
    predicted_t_mod_16: int | None
    predicted_u_mod_8: tuple[int, ...] | None
    prediction_match: bool | None


def cmd_unit(p: int) -> UnitReport:
    """Fundamental unit plus the congruence checks tied to it."""
    unit = fundamental_unit(p)
    data = class_number_enum(p)
    williams_ok = None
    if data.h % 8 == 0:
        williams_ok = williams_check(p, data.h, unit)
    w = decompose_two_squares(p)
    case = pred_t = pred_u = match = None
    if w.c is not None:
        rank_case = sixteen_rank_case(w.a, w.c)
        case = rank_case.value
        if rank_case is not RankCase.NOT8:
            pred = predict_unit_congruences(w.a, w.c)
            pred_t = pred.t_mod_16
            pred_u = tuple(sorted(pred.u_mod_8))
            match = unit.t % 16 == pred_t and unit.u % 8 in pred.u_mod_8
    return UnitReport(
        p=p,
        t=unit.t,
        u=unit.u,
        norm=unit.norm,
        t_mod_16=unit.t % 16,
        u_mod_8=unit.u % 8,
        h=data.h,
        williams_ok=williams_ok,
        case=case,
        predicted_t_mod_16=pred_t,
        predicted_u_mod_8=pred_u,
        prediction_match=match,
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(map(str, value))
    return str(value)


def _names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _render(fmt: str, doc: dict, header: list[str], records: list[dict],
            lines: list[str]) -> str:
    """The one writer of every report: doc as JSON, the records as a CSV
    table under header, or the text lines."""
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(record[k]) for k in header] for record in records)
        return buf.getvalue()
    return "\n".join(lines) + "\n"


def render_verify(report: VerifyReport, fmt: str) -> str:
    # vars() hands out each row's own dict: a per-row asdict would deep-copy
    records = [vars(r) for r in report.rows]
    doc = {"limit": report.limit, "tallies": report.tallies,
           "all_agree": report.all_agree, "rows": records}
    lines = [
        f"primes p = a^2 + c^4 <= {report.limit} (c even): {len(report.rows)}",
        f"  DIV16    (16 | h):        {report.tallies['DIV16']}",
        f"  EXACTLY8 (8 | h, not 16): {report.tallies['EXACTLY8']}",
        f"  NOT8     (8 does not divide h): {report.tallies['NOT8']}",
        f"all three routes agree: {report.all_agree}",
    ]
    return _render(fmt, doc, _names(VerifyRow), records, lines)


def render_density(report: CountReport, fmt: str) -> str:
    # one flat record per class: the pair's residues, X, then the counts
    records = []
    for row in report.rows:
        record = {**vars(row.pair), "X": report.x, **vars(row)}
        del record["pair"]
        records.append(record)
    header = [*_names(CongruencePair), "X", *_names(ClassCount)[1:]]
    lines = [
        f"X = {report.x}",
        f"{'a0':>4} {'q1':>4} {'c0':>4} {'q2':>4} {'lattice':>9} {'distinct':>9} "
        f"{'expected':>14} {'ratio':>8}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.pair.a0:>4} {row.pair.q1:>4} {row.pair.c0:>4} {row.pair.q2:>4} "
            f"{row.lattice_count:>9} {row.distinct_count:>9} "
            f"{row.expected:>14.2f} {row.ratio:>8.4f}"
        )
    return _render(fmt, {"X": report.x, "rows": records}, header, records, lines)


def render_unit(report: UnitReport, fmt: str) -> str:
    lines = [
        f"p = {report.p}",
        f"fundamental unit: T = {report.t}, U = {report.u}, norm = {report.norm}",
        f"T mod 16 = {report.t_mod_16}, U mod 8 = {report.u_mod_8}",
        f"h(-4p) = {report.h}",
    ]
    if report.williams_ok is None:
        lines.append("unit congruence h = T + p - 1 mod 16: not applicable (8 does not divide h)")
    else:
        lines.append(f"unit congruence h = T + p - 1 mod 16: {report.williams_ok}")
    if report.case is None:
        lines.append("p is not of the form a^2 + c^4 with c even")
    else:
        lines.append(f"congruence class: {report.case}")
        if report.predicted_t_mod_16 is not None:
            lines.append(
                f"predicted T mod 16 = {report.predicted_t_mod_16}, "
                f"U mod 8 in {set(report.predicted_u_mod_8)}: "
                f"match = {report.prediction_match}"
            )
    return _render(fmt, vars(report), _names(UnitReport), [vars(report)], lines)


def _parse_pair(args) -> CongruencePair | None:
    given = [v is not None for v in (args.a0, args.q1, args.c0, args.q2)]
    if not any(given):
        return None
    if not all(given):
        raise Refusal("provide all of --a0 --q1 --c0 --q2, or none")
    if args.q1 > _CLI_MODULUS_CAP or args.q2 > _CLI_MODULUS_CAP:
        raise Refusal(f"moduli budget is q1, q2 <= {_CLI_MODULUS_CAP}")
    return CongruencePair(a0=args.a0, q1=args.q1, c0=args.c0, q2=args.q2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixteenrank",
        description="class number divisibility lab for Q(sqrt(-p))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="three-route 16-rank sweep")
    p_verify.add_argument("--limit", type=int, required=True)
    p_verify.add_argument("--threads", type=int, default=1)

    p_density = sub.add_parser("density", help="congruence class counts")
    p_density.add_argument("--limit", type=int, required=True)
    p_density.add_argument("--a0", type=int)
    p_density.add_argument("--q1", type=int)
    p_density.add_argument("--c0", type=int)
    p_density.add_argument("--q2", type=int)

    p_unit = sub.add_parser("unit", help="fundamental unit and congruences")
    p_unit.add_argument("--p", type=int, required=True)

    for sp in (p_verify, p_density, p_unit):
        sp.add_argument("--format", choices=["csv", "json", "text"], default="text")
        sp.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "unit" and args.limit < 3:
            raise Refusal(f"counting commands need --limit >= 3, got {args.limit}")
        if args.command == "verify":
            report = cmd_verify_sixteen(args.limit, threads=args.threads)
            text = render_verify(report, args.format)
        elif args.command == "density":
            pair = _parse_pair(args)
            report = count_report(args.limit, None if pair is None else [pair])
            text = render_density(report, args.format)
        else:
            report = cmd_unit(args.p)
            text = render_unit(report, args.format)
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
