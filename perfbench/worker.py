"""One workload in one fresh process: set-up, timed passes, checks.

`run.py` starts this file with the checkout's `src` on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N
        [--seconds S] [--probes K] [--setup-only] [--spans PATH]

The last line of standard output is one JSON object.  Set-up is the time
from just before `ucz` is imported until the workload's cached catalogue
data is built; then five chunks are timed, to scale it by.  The worker
then makes whole passes over the workload's items while another whole
pass fits in --seconds, and at least MIN_PASSES of them; with the default
of no seconds it makes exactly MIN_PASSES, which is how the traced run
keeps its counts identical from one run to the next.  An item's latency
is the median of its passes.  With --seconds the times
are scaled to a reference host speed (`hostspeed.py`) and the unscaled
ones are reported under "wall".  With --probes the worker also starts K
fresh set-up-only workers, one at a time and spread over the passes, and
reports the median set-up time of all of them and itself.  With --spans
the calls into `ucz` are traced and the spans written there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

# the second pass checks that every output repeats exactly
MIN_PASSES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--probes", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    clock = time.perf_counter
    start = clock()
    import workloads  # imports ucz: part of the set-up time

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]()
    workloads.build_catalogue(workload.descriptors)
    result = {"setup_s": clock() - start, "chunk_s": hostspeed.chunk_time(clock)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    items = workload.make_items(args.seed)
    # the traced run's workers make a fixed number of passes, unscaled
    host = hostspeed.HostSpeed(clock) if args.seconds else None
    begin = clock()
    # (set-up time, chunk time) of this worker and of each probe
    setups = [(result.pop("setup_s"), result.pop("chunk_s"))]

    def probe_when_due():
        # spread the set-up probes evenly over the timed passes
        due = args.probes * (clock() - begin) / args.seconds if args.seconds else 0
        while len(setups) <= min(due, args.probes):
            probe()

    def probe():
        # no chunks while a probe loads the other core
        if host:
            host.stop()
        setups.append(_probe(args))
        if host:
            host.start()

    if host:
        host.start()
    try:
        spans, failed, wrong, _ = workloads.run_passes(
            workload,
            items,
            clock,
            MIN_PASSES,
            begin + args.seconds,
            probe_when_due,
            paused=(lambda: host.spent) if host else None,
        )
        while len(setups) <= args.probes:
            probe()
    finally:
        if host:
            host.stop()
    wall = _timings([t for t, _ in setups], workloads.median_latencies(spans))
    if host is None:
        result.update(wall)
    else:
        scaled = [t * hostspeed.REFERENCE_CHUNK_S / c for t, c in setups]
        result.update(_timings(scaled, workloads.median_latencies(spans, host.scale)))
        result["wall"] = dict(wall, chunk_ms=1e3 * host.median_chunk(), chunks=len(host.samples))
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    result["correct"] = wrong == 0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=len(items), failed=failed)
    print(json.dumps(result))
    return 0


def _timings(setups, latencies) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "item_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
    }


def _probe(args) -> tuple[float, float]:
    """Set-up and chunk time of one more fresh worker, started while this one is idle."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["chunk_s"]


if __name__ == "__main__":
    sys.exit(main())
