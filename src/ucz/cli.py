"""Command-line harness: describe algebras, run suites, emit reports.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error
(unknown algebra, bad seed, --samples below 1), 3 output I/O failure,
4 internal error (a library construction or decomposition raised).
The seed comes from --seed, then the UCZ_SEED environment variable,
then 42; identical (algebra, seed, samples) configurations produce
byte-identical JSON reports, so wall time is reported only in the text
format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import (
    ConstructionError,
    DecompositionError,
    DimensionError,
    DomainError,
    PoleError,
    UnsupportedAlgebraError,
)
from .exactlin import Rat
from .kostant import build_principal_triple, slice_for
from .liealg import ALGEBRA_DESCRIPTORS, Element, algebra_from_descriptor
from .suites import SUITE_NAMES, SuiteReport, run_suites
from .wonderful import build_orbit_poset

USAGE_ERROR = 2
IO_ERROR = 3
INTERNAL_ERROR = 4

# library errors that mean the workbench itself failed, not a checked claim
_INTERNAL_ERRORS = (ConstructionError, DecompositionError, DomainError, DimensionError, PoleError)


def _format_coeff(c: Rat) -> str:
    return str(c)


def _format_element(x: Element) -> str:
    L = x.algebra
    terms = []
    for idx, c in enumerate(x.coords):
        if c == 0:
            continue
        name = L.basis_name(idx)
        if c == 1:
            terms.append(name)
        elif c == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{_format_coeff(c)}*{name}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _format_subset(I) -> str:
    return "{" + ",".join(str(i) for i in sorted(I)) + "}"


def _resolve_seed(value: str | None) -> int:
    text = value if value is not None else os.environ.get("UCZ_SEED", "42")
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")


def cmd_describe(args) -> int:
    L = algebra_from_descriptor(args.algebra)
    t = build_principal_triple(L)
    ks = slice_for(L)
    out = [
        f"algebra {L.descriptor}: dim n = {L.dim}, rank l = {L.rank}, "
        f"positive roots = {L.n_pos}",
        "principal triple:",
        f"  e = {_format_element(t.e)}",
        f"  h = {_format_element(t.h)}",
        f"  f = {_format_element(t.f)}",
        f"slice degrees: {ks.degrees}",
        "orbit table:",
        f"  {'I':<10} {'dim':>4} {'stab':>5} {'divisor':>8}",
    ]
    for row in build_orbit_poset(L).rows:
        mark = "yes" if row.is_divisor else ""
        out.append(
            f"  {_format_subset(row.I):<10} {row.dim:>4} {row.stabilizer_dim:>5} {mark:>8}".rstrip()
        )
    print("\n".join(out))
    return 0


def _report_document(algebra: str, seed: int, reports: list[SuiteReport]) -> dict:
    return {
        "algebra": algebra,
        "seed": seed,
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "total": r.total,
                "details": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "total": c.total,
                        "detail": c.detail,
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }


def _render_text(reports: list[SuiteReport], seed: int, samples: int, elapsed: float) -> str:
    lines = [
        f"seed {seed}  samples {samples}",
        f"{'suite':<12} {'passed':>7} {'total':>7}  status",
    ]
    for r in reports:
        status = "ok" if r.ok else "FAIL"
        lines.append(f"{r.name:<12} {r.passed:>7} {r.total:>7}  {status}")
        for c in r.checks:
            if not c.ok:
                lines.append(f"    {c.name}: {c.passed}/{c.total}  {c.detail}")
    lines.append(f"wall time: {elapsed:.2f}s")
    return "\n".join(lines)


def _render_json(algebra: str, seed: int, reports: list[SuiteReport]) -> str:
    return json.dumps(_report_document(algebra, seed, reports), indent=2) + "\n"


def _selected_suites(choice: str) -> tuple[str, ...]:
    return SUITE_NAMES if choice == "all" else (choice,)


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise argparse.ArgumentTypeError(f"--samples must be at least 1, got {samples}")


def _run_report(args) -> tuple[str, bool]:
    """Run the selected suites; the rendered report and whether every check passed."""
    L = algebra_from_descriptor(args.algebra)
    seed = _resolve_seed(args.seed)
    _check_samples(args.samples)
    start = time.monotonic()
    reports = run_suites(L, _selected_suites(args.suite), seed, args.samples)
    elapsed = time.monotonic() - start
    if args.format == "json":
        text = _render_json(L.descriptor, seed, reports)
    else:
        text = f"algebra {L.descriptor}\n" + _render_text(
            reports, seed, args.samples, elapsed
        ) + "\n"
    return text, all(r.ok for r in reports)


def cmd_verify(args) -> int:
    text, ok = _run_report(args)
    sys.stdout.write(text)
    return 0 if ok else 1


def cmd_report(args) -> int:
    text, _ = _run_report(args)
    if args.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return IO_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucz",
        description="Exact verification workbench for centralizer families "
        "over small semisimple Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("algebra", help=f"one of {', '.join(ALGEBRA_DESCRIPTORS)}")
        p.add_argument(
            "--suite",
            default="all",
            choices=(*SUITE_NAMES, "all"),
            help="which suite to run (default: all)",
        )
        p.add_argument(
            "--seed",
            default=None,
            help="64-bit master seed (default: UCZ_SEED env var, else 42)",
        )
        p.add_argument(
            "--samples", type=int, default=100, help="samples per randomized check"
        )
        p.add_argument(
            "--format", default="text", choices=("text", "json"), help="output format"
        )

    p_desc = sub.add_parser("describe", help="print dimensions, triple, degrees, orbits")
    p_desc.add_argument("algebra", help=f"one of {', '.join(ALGEBRA_DESCRIPTORS)}")
    p_desc.set_defaults(func=cmd_describe)

    p_verify = sub.add_parser("verify", help="run verification suites")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="emit a machine-readable report")
    add_common(p_report)
    p_report.set_defaults(func=cmd_report)
    p_report.set_defaults(format="json")
    p_report.add_argument("-o", "--output", default=None, help="write to this file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedAlgebraError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except argparse.ArgumentTypeError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
