"""Benchmark of the ucz workbench: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `ucz` from the checkout's
`src` in fresh worker processes (`worker.py`), one at a time.

With --trace 0 it prints the end-to-end metrics of one worker that makes
whole passes over the workload's items for --seconds.  `setup_s` is the
median set-up time of that worker and of SETUP_PROBES more fresh workers
it starts between its passes.  The times are scaled to a reference host
speed (`hostspeed.py`); the unscaled wall-clock figures go to standard
error.

With --trace 1 it makes two passes once untraced and once traced, prints the
per-layer metrics of the traced worker, and reports the tracing overhead
as the ratio of traced to untraced items per second.  The spans go to
`.bench_out/` in the checkout.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A worker that fails to start or crashes ends the run with exit code 1 and
no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 20
TIME_LIMIT_S = 170.0

UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _python(args: list[str], deadline: float) -> str:
    """Run the interpreter with the checkout's `src` on the path; returns its stdout."""
    env = dict(os.environ)
    # import ucz from cached bytecode, as an installed package would be
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{args[0]} ran past the time limit") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise WorkerError(f"{args[0]} exited with {proc.returncode}: {tail[0]}")
    return proc.stdout


def _worker(options: list[str], deadline: float) -> dict:
    out = _python([str(HERE / "worker.py"), *options], deadline)
    return json.loads(out.strip().splitlines()[-1])


def _parse(argv):
    parser = argparse.ArgumentParser(description="ucz benchmark")
    parser.add_argument("--workload", required=True, choices=("verify-a2", "charts-leaves", "boundary-torus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "ucz" / "__init__.py").is_file():
        print(f"no ucz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # compile first, so that no worker's set-up or memory includes compiling
        _python(["-m", "compileall", "-q", str(ROOT / "src" / "ucz"), str(HERE)], deadline)
        if args.trace:
            plain = _worker(base, deadline)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            run = _worker(base + ["--spans", str(spans)], deadline)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["layers"].items()}
            ratio = run["items_per_s"] / plain["items_per_s"] if plain["items_per_s"] else 0.0
            metrics["trace.items_per_s_ratio"] = {"value": ratio, "unit": "ratio"}
            correct = plain["correct"] and run["correct"]
        else:
            options = ["--seconds", str(args.seconds), "--probes", str(SETUP_PROBES)]
            run = _worker(base + options, deadline)
            metrics = {name: {"value": run[name], "unit": unit} for name, unit in UNITS.items()}
            if "wall" in run:
                print("wall clock, unscaled:", json.dumps(run["wall"]), file=sys.stderr)
            correct = run["correct"]
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
