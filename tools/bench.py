"""Layer and end-to-end timings of ucz checkouts, timed alternately into one file.

    python3 tools/bench.py --src parent=OTHER/src --src change=src --out BENCH_17.json

Each `--src LABEL=DIR` names the `src` directory of a checkout (default:
`change=` the one next to this file); its `tests` directory sits beside
it.  The checkouts are timed in turn, step by step, and the order flips
every repeat, so a phase of the host's speed falls on both sides alike.
A repeat times, for each checkout, every layer in one fresh process
(`--layers DIR`, each layer the better of two runs there), then
`ucz verify <alg> --samples 20` per algebra and the catalogue set-up
(`import ucz`, then every algebra with every parabolic, then the fiber,
stabilizer and derived Levi of each), each in a fresh process of its own.
Every figure is the minimum over the repeats, because single runs on a
shared host vary by about 30%.  Inputs a layer caches on (group elements
cache their inverse, the parabolic data of an (algebra, I) pair is built
once, and so are its fiber, stabilizer and derived Levi) are made fresh
for every run, outside the timing.  The tier-1 suite and the acceptance
gate are timed once per checkout, in turn, and are labelled as single
runs.  Each label's result is merged into `--out`; without `--out` the
results are printed.  Standard library only.
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
IN_PROCESS_RUNS = 2
VERIFY_SAMPLES = 20
UNIPOTENT_CALLS = 200
GROUP_CALLS = 2000
INVERSE_CALLS = 200
LEAF_SAMPLES = 10
FREENESS_PAIRS = 20
MEMBERSHIP_PAIRS = 100
FROM_MATRIX_CALLS = 200


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
    """Parabolic sweeps, samplers, group inverses, leaf readout and membership, in process."""
    sys.path.insert(0, str(src))
    from fractions import Fraction

    from ucz import algebra_from_descriptor
    from ucz.exactlin import Mat
    from ucz.kostant import build_principal_triple
    from ucz.liealg import GroupElement, conjugate, pair_row
    from ucz.logsympl import leaf_label, leaf_sigma_values, nxn_freeness, same_leaf
    from ucz.rng import stream
    from ucz.suites import borel_sample, fiber_sample, group_sample, positive_unipotent
    from ucz.wonderful import (
        _build_parabolic_cached,
        all_subsets,
        build_parabolic,
        derived_levi,
        fiber_algebra,
        make_boundary_point,
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

    # Subspace.contains on members and on non-members next to them: the Borel
    # (a coordinate span) on x - f and x for x in f + b, and a fiber of A3 and
    # its translate by a pair of group elements on a fiber pair (x1, x2) and
    # (x1 + h_1, x2), whose Levi parts differ
    L = algebra_from_descriptor("A3")
    gen = stream(15, "bench:contains")
    f = build_principal_triple(L).f
    points = [borel_sample(L, gen) for _ in range(MEMBERSHIP_PAIRS)]
    borel = [(x - f).num for x in points] + [x.num for x in points]
    p = build_parabolic(L, {2})
    fiber = fiber_algebra(p)
    pairs = [fiber_sample(p, gen)[:2] for _ in range(MEMBERSHIP_PAIRS)]
    rows = [pair_row(x1, x2) for x1, x2 in pairs]
    rows += [pair_row(x1 + L.h(0), x2) for x1, x2 in pairs]
    g1, g2 = group_sample(L, gen), group_sample(L, gen)
    point = make_boundary_point(p, g1, g2)
    moved = [pair_row(conjugate(g1, x1), conjugate(g2, x2)) for x1, x2 in pairs]
    moved += [pair_row(conjugate(g1, x1 + L.h(0)), conjugate(g2, x2)) for x1, x2 in pairs]
    for name, space, vectors in (
        ("coordinate span (Borel) A3", L.borel, borel),
        ("fiber A3 I={2}", fiber, rows),
        ("translated fiber A3 I={2}", point.realized_fiber, moved),
    ):
        want = [True] * MEMBERSHIP_PAIRS + [False] * MEMBERSHIP_PAIRS
        if [space.contains(v) for v in vectors] != want:
            raise AssertionError(f"Subspace.contains {name} misreads a vector")

        def contains(space=space, vectors=vectors):
            for v in vectors:
                space.contains(v)

        out[f"Subspace.contains {name}"] = _layer(best_of(repeats, contains), len(vectors))

    for alg in ("A2", "A3"):
        L = algebra_from_descriptor(alg)
        gen = stream(16, f"bench:from_matrix:{alg}")
        mats = [
            L.realize(L.element([gen.fraction() for _ in range(L.dim)]))
            for _ in range(FROM_MATRIX_CALLS)
        ]

        def read(L=L, mats=mats):
            for mat in mats:
                L.from_matrix(mat)

        out[f"from_matrix {alg}"] = _layer(best_of(repeats, read), FROM_MATRIX_CALLS)
    return out


def _layer(best_s: float, calls: int) -> dict:
    per_call_us = round(1e6 * best_s / calls, 3)
    return {"best_s": round(best_s, 6), "calls": calls, "per_call_us": per_call_us}


CATALOGUE_STEPS = (
    "import ucz",
    "every algebra and parabolic",
    "every fiber, stabilizer and derived Levi",
)
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


def _python(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    """The interpreter run on args in a fresh process, with src on its path and cwd its checkout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args], cwd=src.parent, env=env, capture_output=True, text=True
    )


def _steps(src: Path) -> dict:
    """One repeat's timings of src, each step a callable that starts fresh processes."""

    def layers():
        done = _python(src, [str(Path(__file__).resolve()), "--layers", str(src)])
        done.check_returncode()
        return json.loads(done.stdout)

    def verify(alg: str):
        args = ["-m", "ucz", "verify", alg, "--samples", str(VERIFY_SAMPLES)]
        start = time.perf_counter()
        code = _python(src, args).returncode
        return time.perf_counter() - start, code

    def catalogue():
        return json.loads(_python(src, ["-c", CATALOGUE]).stdout)

    steps = {"layers": layers, "catalogue": catalogue}
    steps.update({alg: (lambda alg=alg: verify(alg)) for alg in ALGEBRAS})
    return steps


def _single_runs(src: Path) -> dict:
    """The tier-1 suite and the acceptance gate, one run each."""
    out = {}
    pytest = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    for name, extra in (("tier-1", []), ("gate", ["tests/test_acceptance.py"])):
        start = time.perf_counter()
        done = _python(src, pytest + extra)
        lines = done.stdout.strip().splitlines()
        out[name] = {
            "single_run_s": round(time.perf_counter() - start, 3),
            "summary": lines[-1] if lines else "",
            "exit_code": done.returncode,
        }
    return out


def alternate(checkouts: dict[str, Path], repeats: int) -> dict:
    """Every checkout timed step by step in turn, the order flipped every repeat."""
    labels = list(checkouts)
    steps = {label: _steps(src) for label, src in checkouts.items()}
    runs = {label: {name: [] for name in steps[label]} for label in labels}
    for src in checkouts.values():
        # compiled once up front, so no timed run pays for compiling a module it imports
        _python(src, ["-m", "compileall", "-q", str(src / "ucz")]).check_returncode()
    for r in range(repeats):
        order = labels if r % 2 == 0 else labels[::-1]
        for name in steps[labels[0]]:
            for label in order:
                runs[label][name].append(steps[label][name]())
    results = {}
    for label in labels:
        got = runs[label]
        first = got["layers"][0]
        layers = {
            row: _layer(min(run[row]["best_s"] for run in got["layers"]), first[row]["calls"])
            for row in first
        }
        end_to_end = {
            f"verify {alg} --samples {VERIFY_SAMPLES}": {
                "best_s": round(min(t for t, _ in got[alg]), 4),
                "exit_codes": sorted({code for _, code in got[alg]}),
            }
            for alg in ALGEBRAS
        }
        for k, name in enumerate(CATALOGUE_STEPS):
            end_to_end[f"fresh process: {name}"] = {
                "best_s": round(min(run[k] for run in got["catalogue"]), 4)
            }
        results[label] = {
            "repeats": repeats,
            "layers_best_s": layers,
            "end_to_end_best_s": end_to_end,
        }
    for label in labels:
        results[label]["single_runs"] = _single_runs(checkouts[label])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        action="append",
        metavar="LABEL=DIR",
        help="a checkout's src directory under a label; repeat to time checkouts in turn",
    )
    parser.add_argument("--out", type=Path, default=None, help="JSON file to merge results into")
    parser.add_argument("--layers", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.layers is not None:
        # one repeat's layer timings, in this fresh process
        print(json.dumps(layer_timings(args.layers.resolve(), IN_PROCESS_RUNS)))
        return 0
    checkouts = {}
    for item in args.src or [f"change={Path(__file__).resolve().parents[1] / 'src'}"]:
        label, sep, path = item.partition("=")
        src = Path(path).resolve()
        if not sep or not label or label in checkouts:
            parser.error(f"--src wants a new LABEL=DIR, got {item!r}")
        if not (src / "ucz").is_dir():
            parser.error(f"{src} holds no ucz package")
        checkouts[label] = src
    results = alternate(checkouts, REPEATS)
    if args.out is None:
        print(json.dumps(results, indent=2))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("harness", "tools/bench.py")
    host = f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"
    doc.setdefault("host", host)
    doc["order"] = f"alternating {', '.join(checkouts)}, flipped every repeat"
    doc.update(results)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
