"""Layer and end-to-end timings of one ucz checkout, recorded under a label.

    python3 tools/bench.py --label change --out BENCH_16.json
    python3 tools/bench.py --src OTHER/src --label parent --out BENCH_16.json

`--src` is the `src` directory of the checkout to time (default: the one
next to this file); its `tests` directory sits beside it.  Each layer
timing and each `ucz verify <alg> --samples 20` is the minimum of
five runs, because single runs on a shared host vary by about 30%.
Inputs a layer caches on (group elements cache their inverse, the
parabolic data of an (algebra, I) pair is built once, and so are its
fiber, stabilizer and derived Levi) are made fresh for every run, outside
the timing.  The catalogue set-up, `import ucz`, then every algebra with
every parabolic, then the fiber, stabilizer and derived Levi of each, is
timed in a fresh process.
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
INVERSE_CALLS = 200
LEAF_SAMPLES = 10
FREENESS_PAIRS = 20


def best_of(repeats: int, fn, fresh=tuple) -> float:
    """The least wall time of `repeats` calls fn(*fresh()), fresh() made outside the timing."""
    best = float("inf")
    for _ in range(repeats):
        args = fresh()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def layer_timings(src: Path, repeats: int) -> dict:
    """Parabolic sweeps, samplers, group inverses and the leaf readout at src, in process."""
    sys.path.insert(0, str(src))
    from fractions import Fraction

    from ucz import algebra_from_descriptor
    from ucz.exactlin import Mat
    from ucz.liealg import GroupElement
    from ucz.logsympl import leaf_label, leaf_sigma_values, nxn_freeness, same_leaf
    from ucz.rng import stream
    from ucz.suites import borel_sample, fiber_sample, group_sample, positive_unipotent
    from ucz.wonderful import (
        _build_parabolic_cached,
        all_subsets,
        build_parabolic,
        derived_levi,
        fiber_algebra,
        stabilizer_algebra,
    )

    def uncached():
        _build_parabolic_cached.cache_clear()
        return ()

    out = {}
    for alg in ALGEBRAS:
        L = algebra_from_descriptor(alg)
        subsets = all_subsets(L.rank)

        def sweep(L=L, subsets=subsets):
            for I in subsets:
                build_parabolic(L, I)

        out[f"build_parabolic sweep {alg}"] = _layer(
            best_of(repeats, sweep, uncached), len(subsets)
        )
        parabolics = [build_parabolic(L, I) for I in subsets]
        for name, fn, slot in (
            ("fiber_algebra", fiber_algebra, "_fiber"),
            ("stabilizer_algebra", stabilizer_algebra, "_stabilizer"),
            ("derived_levi", derived_levi, "_derived_levi"),
        ):

            def boundary(fn=fn, parabolics=parabolics):
                for p in parabolics:
                    fn(p)

            def cleared(slot=slot, parabolics=parabolics):
                for p in parabolics:
                    setattr(p, slot, None)
                return ()

            # the first run builds the fiber a stabilizer reads; only the timed cache is cleared
            boundary()
            out[f"{name} sweep {alg}"] = _layer(
                best_of(repeats, boundary, cleared), len(subsets)
            )
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

    for alg in ("A2", "A3"):
        L = algebra_from_descriptor(alg)
        gen = stream(13, f"bench:inverse:{alg}")
        mats = [group_sample(L, gen).mat for _ in range(INVERSE_CALLS)]

        def invert(elements):
            for g in elements:
                g.inverse()

        def fresh(mats=mats):
            return ([GroupElement(mat) for mat in mats],)

        best = best_of(repeats, invert, fresh)
        out[f"GroupElement.inverse {alg}"] = _layer(best, INVERSE_CALLS)

        gen = stream(13, f"bench:freeness:{alg}")
        pairs = [(borel_sample(L, gen), borel_sample(L, gen)) for _ in range(FREENESS_PAIRS)]

        def freeness(pairs=pairs):
            for xi1, xi2 in pairs:
                nxn_freeness(xi1, xi2)

        out[f"nxn_freeness {alg}"] = _layer(best_of(repeats, freeness), FREENESS_PAIRS)

    for alg in ("A2", "A3", "G2"):
        L = algebra_from_descriptor(alg)
        parabolics = [build_parabolic(L, I) for I in all_subsets(L.rank)]
        calls = len(parabolics) * LEAF_SAMPLES

        def draw(L=L, parabolics=parabolics):
            gen = stream(14, f"bench:fiber:{L.descriptor}")
            return [[fiber_sample(p, gen) for _ in range(LEAF_SAMPLES)] for p in parabolics]

        # the first run fills the lazy per-parabolic caches; best_of keeps the least run
        samples = draw()
        out[f"fiber_sample {alg}"] = _layer(best_of(repeats, draw), calls)
        for name, fn in (("leaf_label", leaf_label), ("leaf_sigma_values", leaf_sigma_values)):

            def read(fn=fn, parabolics=parabolics, samples=samples):
                for p, points in zip(parabolics, samples):
                    for xi1, _, _ in points:
                        fn(p, xi1)

            out[f"{name} {alg}"] = _layer(best_of(repeats, read), calls)

        def compare(parabolics=parabolics, samples=samples):
            for p, points in zip(parabolics, samples):
                for (x1, x2, _), (y1, y2, _) in zip(points, points[1:] + points[:1]):
                    same_leaf(p, (x1, x2), (y1, y2))

        out[f"same_leaf {alg}"] = _layer(best_of(repeats, compare), calls)
    return out


def _layer(best_s: float, calls: int) -> dict:
    per_call_us = round(1e6 * best_s / calls, 3)
    return {"best_s": round(best_s, 6), "calls": calls, "per_call_us": per_call_us}


CATALOGUE = """
import json, time
start = time.perf_counter()
from ucz import ALGEBRA_DESCRIPTORS, algebra_from_descriptor
from ucz.wonderful import all_subsets, build_parabolic, derived_levi, stabilizer_algebra
imported = time.perf_counter()
parabolics = []
for descriptor in ALGEBRA_DESCRIPTORS:
    L = algebra_from_descriptor(descriptor)
    parabolics += [build_parabolic(L, I) for I in all_subsets(L.rank)]
built = time.perf_counter()
for p in parabolics:
    stabilizer_algebra(p)  # builds the fiber first
    derived_levi(p)
print(json.dumps([imported - start, built - imported, time.perf_counter() - built]))
"""


def end_to_end(src: Path, repeats: int) -> tuple[dict, dict]:
    """End-to-end timings, each in a subprocess.

    `ucz verify` per algebra and the catalogue set-up are the best of
    repeats; the suites are single runs.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    root = src.parent

    def run(args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True
        )

    # compiled once up front, so no timed run pays for compiling a module it imports
    run(["-m", "compileall", "-q", str(src / "ucz")]).check_returncode()
    verify = {}
    for alg in ALGEBRAS:
        args = ["-m", "ucz", "verify", alg, "--samples", str(VERIFY_SAMPLES)]
        codes = set()
        best = best_of(repeats, lambda args=args: codes.add(run(args).returncode))
        verify[f"verify {alg} --samples {VERIFY_SAMPLES}"] = {
            "best_s": round(best, 4),
            "exit_codes": sorted(codes),
        }
    runs = [json.loads(run(["-c", CATALOGUE]).stdout) for _ in range(repeats)]
    verify["fresh process: import ucz"] = {"best_s": round(min(r[0] for r in runs), 4)}
    verify["fresh process: every algebra and parabolic"] = {
        "best_s": round(min(r[1] for r in runs), 4)
    }
    verify["fresh process: every fiber, stabilizer and derived Levi"] = {
        "best_s": round(min(r[2] for r in runs), 4)
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
