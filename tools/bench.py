"""Layer and end-to-end timings of ucz checkouts, timed alternately into one file.

    python3 tools/bench.py --src parent=OTHER/src --src change=src --out BENCH_20.json

Each `--src LABEL=DIR` names the `src` directory of a checkout (default:
`change=` the one next to this file); its `tests`, `perfbench` and
`BENCHMARK.json` sit beside it.  The checkouts are timed in turn, step by
step, and the order flips every repeat, so a phase of the host's speed
falls on both sides alike.  A repeat runs, for each checkout, the
benchmark's traced mode (`perfbench/run.py --trace 1`) on every workload
its `BENCHMARK.json` names, then `ucz verify <alg> --samples 20` per
algebra of the checkout's `ucz.ALGEBRA_DESCRIPTORS` (read in a fresh
process) and the catalogue set-up (`import ucz`, then every algebra with
every parabolic, then the fiber, stabilizer and derived Levi of each),
each in a fresh process of its own.

The per-layer rows are the tracer's: `X.F.calls` counts and `X.F.self_s`
seconds of each wrapped function F of layer X.  A count must be the same
in every repeat; every other value, like every end-to-end figure, is the
minimum over the repeats, because single runs on a shared host vary by
about 30%.  The tier-1 suite and the acceptance gate are timed once per
checkout, in turn, and are labelled as single runs.  `verify`, tier-1 and
the gate keep their exit codes; any other process that fails, or a traced
run that is not correct, stops the tool with an error naming the step.
Each label's result is merged into `--out`; without `--out` the results
are printed.  Standard library only.
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

REPEATS = 5
VERIFY_SAMPLES = 20


class BenchError(RuntimeError):
    """A step whose output the tool needs failed."""


def merge_traced(where: str, runs: list[dict]) -> dict:
    """One workload's traced results over the repeats: counts kept exactly, the rest the minimum."""
    for run in runs:
        if run["correct"] is not True or run["failed"]:
            raise BenchError(f"{where}: traced run not correct ({run['failed']} failed)")
    layers = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        if name.endswith(".calls") and len(set(values)) > 1:
            raise BenchError(f"{where}: {name} differs between repeats: {values}")
        layers[name] = min(values)
    return layers


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


def _checked(label: str, step: str, src: Path, args: list[str]) -> str:
    """Standard output of a fresh process that has to succeed."""
    done = _python(src, args)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no message"]
        raise BenchError(f"{label}: {step} exited with {done.returncode}: {tail[0]}")
    return done.stdout


def _workloads(src: Path) -> list[str]:
    spec = json.loads((src.parent / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def _algebras(label: str, src: Path) -> list[str]:
    """The checkout's catalogue, `ucz.ALGEBRA_DESCRIPTORS`, read in a fresh process."""
    script = "import ucz; print(*ucz.ALGEBRA_DESCRIPTORS)"
    return _checked(label, "algebra list", src, ["-c", script]).split()


def _steps(label: str, src: Path, algebras: list[str]) -> dict:
    """One repeat's timings of src, each step a callable that starts fresh processes."""

    def traced(workload: str):
        script = str(src.parent / "perfbench" / "run.py")
        args = [script, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
        out = _checked(label, f"traced {workload}", src, args)
        run = json.loads(out.strip().splitlines()[-1])
        merge_traced(f"{label}: traced {workload}", [run])  # stops at the first bad run
        return run

    def verify(alg: str):
        args = ["-m", "ucz", "verify", alg, "--samples", str(VERIFY_SAMPLES)]
        start = time.perf_counter()
        code = _python(src, args).returncode
        return time.perf_counter() - start, code

    def catalogue():
        return json.loads(_checked(label, "catalogue", src, ["-c", CATALOGUE]))

    steps = {f"traced {w}": (lambda w=w: traced(w)) for w in _workloads(src)}
    steps.update({alg: (lambda alg=alg: verify(alg)) for alg in algebras})
    steps["catalogue"] = catalogue
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
    algebras = {label: _algebras(label, src) for label, src in checkouts.items()}
    steps = {label: _steps(label, src, algebras[label]) for label, src in checkouts.items()}
    runs = {label: {name: [] for name in steps[label]} for label in labels}
    names = dict.fromkeys(name for label in labels for name in steps[label])
    for label, src in checkouts.items():
        # compiled once up front, so no timed run pays for compiling a module it imports
        _checked(label, "compileall", src, ["-m", "compileall", "-q", str(src / "ucz")])
    for r in range(repeats):
        order = labels if r % 2 == 0 else labels[::-1]
        for name in names:
            for label in order:
                if name in steps[label]:
                    runs[label][name].append(steps[label][name]())
    results = {}
    for label in labels:
        got = runs[label]
        layers = {
            w: merge_traced(f"{label}: traced {w}", got[f"traced {w}"])
            for w in _workloads(checkouts[label])
        }
        end_to_end = {
            f"verify {alg} --samples {VERIFY_SAMPLES}": {
                "best_s": round(min(t for t, _ in got[alg]), 4),
                "exit_codes": sorted({code for _, code in got[alg]}),
            }
            for alg in algebras[label]
        }
        for k, name in enumerate(CATALOGUE_STEPS):
            end_to_end[f"fresh process: {name}"] = {
                "best_s": round(min(run[k] for run in got["catalogue"]), 4)
            }
        results[label] = {"repeats": repeats, "layers": layers, "end_to_end_best_s": end_to_end}
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
    args = parser.parse_args(argv)
    checkouts = {}
    for item in args.src or [f"change={Path(__file__).resolve().parents[1] / 'src'}"]:
        label, sep, path = item.partition("=")
        src = Path(path).resolve()
        if not sep or not label or label in checkouts:
            parser.error(f"--src wants a new LABEL=DIR, got {item!r}")
        if not (src / "ucz").is_dir():
            parser.error(f"{src} holds no ucz package")
        checkouts[label] = src
    try:
        results = alternate(checkouts, REPEATS)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
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
