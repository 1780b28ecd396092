"""Layer and end-to-end timings of one ucz checkout, recorded under a label.

    python3 tools/bench.py --label change --out BENCH_12.json
    python3 tools/bench.py --src OTHER/src --label parent --out BENCH_12.json

`--src` is the `src` directory of the checkout to time (default: the one
next to this file); its `tests` directory sits beside it.  Each layer
timing and each `ucz verify <alg> --samples 20` is the minimum of
five runs, because single runs on a shared host vary by about 30%.
The tier-1 suite and the acceptance gate are timed once each and are
labelled as single runs.  The result is merged into `--out` under
`--label`, so a parent and a change can be timed in turn into one file;
without `--out` it is printed.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ALGEBRAS = ("A1", "A2", "A3", "B2", "G2")
REPEATS = 5
VERIFY_SAMPLES = 20
UNIPOTENT_CALLS = 200
GROUP_CALLS = 2000


def best_of(repeats: int, fn) -> float:
    """The least wall time of `repeats` calls of fn."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def layer_timings(src: Path, repeats: int) -> dict:
    """Samplers and the det-one check of the checkout at src, timed in this process."""
    sys.path.insert(0, str(src))
    from fractions import Fraction

    from ucz import algebra_from_descriptor
    from ucz.exactlin import Mat
    from ucz.liealg import GroupElement
    from ucz.rng import stream
    from ucz.suites import positive_unipotent

    out = {}
    for alg in ("A1", "A2", "A3"):
        L = algebra_from_descriptor(alg)

        def unipotents(L=L, alg=alg):
            gen = stream(12, f"bench:unipotent:{alg}")
            for _ in range(UNIPOTENT_CALLS):
                positive_unipotent(L, gen)

        unipotents()  # builds any per-algebra cache outside the timing
        out[f"positive_unipotent {alg}"] = _layer(best_of(repeats, unipotents), UNIPOTENT_CALLS)
    half, third = Fraction(1, 2), Fraction(1, 3)
    upper = Mat([(2, half, 1, -3), (0, half, third, 0), (0, 0, 3, 2), (0, 0, 0, third)])
    lower = Mat([(1, 0, 0, 0), (-2, 1, 0, 0), (third, 0, 1, 0), (0, half, -1, 1)])
    for name, mat in (("triangular", upper), ("non-triangular", upper * lower)):

        def build(mat=mat):
            for _ in range(GROUP_CALLS):
                GroupElement(mat)

        out[f"GroupElement 4x4 {name}"] = _layer(best_of(repeats, build), GROUP_CALLS)
    return out


def _layer(best_s: float, calls: int) -> dict:
    per_call_us = round(1e6 * best_s / calls, 3)
    return {"best_s": round(best_s, 6), "calls": calls, "per_call_us": per_call_us}


def end_to_end(src: Path, repeats: int) -> tuple[dict, dict]:
    """`ucz verify` per algebra (best of repeats) and the suites (single runs), in subprocesses."""
    env = dict(os.environ, PYTHONPATH=str(src))
    root = src.parent

    def run(args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True
        )

    verify = {}
    for alg in ALGEBRAS:
        args = ["-m", "ucz", "verify", alg, "--samples", str(VERIFY_SAMPLES)]
        codes = set()
        best = best_of(repeats, lambda args=args: codes.add(run(args).returncode))
        verify[f"verify {alg} --samples {VERIFY_SAMPLES}"] = {
            "best_s": round(best, 4),
            "exit_codes": sorted(codes),
        }
    singles = {}
    pytest = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    for name, extra in (("tier-1", []), ("gate", ["tests/test_acceptance.py"])):
        start = time.perf_counter()
        done = run(pytest + extra)
        lines = done.stdout.strip().splitlines()
        singles[name] = {
            "single_run_s": round(time.perf_counter() - start, 3),
            "summary": lines[-1] if lines else "",
            "exit_code": done.returncode,
        }
    return verify, singles


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to merge the result into")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "ucz").is_dir():
        parser.error(f"{src} holds no ucz package")
    verify, singles = end_to_end(src, REPEATS)
    result = {
        "repeats": REPEATS,
        "layers_best_s": layer_timings(src, REPEATS),
        "end_to_end_best_s": verify,
        "single_runs": singles,
    }
    if args.out is None:
        print(json.dumps({args.label: result}, indent=2))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("harness", "tools/bench.py")
    host = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"
    doc.setdefault("host", host)
    doc[args.label] = result
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
