"""The three benchmark workloads: inputs, the timed call, and the checks.

A workload's `make_items` builds a fixed number of items from the
benchmark seed, and a run makes whole passes over all of them, so the
same seed always gives the same items and every run attempts the same
operations.  `run` is the only timed part of an item; `check` runs
afterwards and compares the output against the independent oracles in
`oracles.py` or against properties the method must have, never against
stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from collections import Counter
from fractions import Fraction

import oracles
from ucz import cli, kostant, liealg, logsympl, suites, wonderful
from ucz.exactlin import Mat
from ucz.rng import SplitMix64

CATALOGUE = ("A1", "A2", "A3", "B2", "G2")


def build_catalogue(descriptors) -> None:
    """The cached data a workload uses: algebras, triples, slices, parabolics, posets, charts."""
    for descriptor in descriptors:
        L = liealg.algebra_from_descriptor(descriptor)
        kostant.slice_for(L)
        for I in wonderful.all_subsets(L.rank):
            wonderful.fiber_algebra(wonderful.build_parabolic(L, I))
            logsympl.build_chart(L, I)
        wonderful.build_orbit_poset(L)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _fraction(rand: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rand.randint(-bound, bound), rand.choice((1, 1, 2, 3)))


def _nonzero_fraction(rand: random.Random, bound: int = 9) -> Fraction:
    while True:
        x = _fraction(rand, bound)
        if x:
            return x


def _rows(m: Mat):
    return [list(row) for row in m.row_list()]


# -- verify-a2 -----------------------------------------------------------------


class VerifyA2:
    """One item is `ucz verify A2 --samples N --seed s --format json`, in process.

    The repeated passes of `run_passes` also check that one (seed, N) gives
    byte-identical JSON every time.
    """

    name = "verify-a2"
    descriptors = ("A2",)
    samples = 4
    count = 2
    suite_names = ("kostant", "moment", "wonderful", "logsympl", "reduction")

    def make_items(self, seed: int) -> list:
        rand = _rng(seed, self.name)
        return [rand.getrandbits(32) for _ in range(self.count)]

    def run(self, item):
        argv = ["verify", "A2", "--samples", str(self.samples), "--seed", str(item)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--format", "json"])
        return code, buf.getvalue()

    def check(self, item, output) -> bool:
        code, text = output
        if code != 0:
            return False
        doc = json.loads(text)
        if doc["algebra"] != "A2" or doc["seed"] != item:
            return False
        if tuple(s["name"] for s in doc["suites"]) != self.suite_names:
            return False
        for suite in doc["suites"]:
            checks = suite["details"]
            if not checks or suite["total"] != sum(c["total"] for c in checks):
                return False
            for entry in [suite] + checks:
                # passed == total > 0: a 0/0 check is not a pass
                if not entry["passed"] == entry["total"] > 0:
                    return False
        return True


# -- charts-leaves ---------------------------------------------------------------


class _Replay:
    """A fraction stream for `fiber_sample`: scripted first values, then a fresh generator.

    `fiber_sample` draws the central coordinates first, so two streams that
    share their script give two fiber points on the same leaf.
    """

    def __init__(self, script, gen: SplitMix64):
        self._script = list(script)
        self._gen = gen

    def fraction(self, *args, **kwargs) -> Fraction:
        if self._script:
            return self._script.pop(0)
        return self._gen.fraction(*args, **kwargs)


class ChartsLeaves:
    """Chart points, strata and leaf pairs over every algebra and every pole set I."""

    name = "charts-leaves"
    descriptors = CATALOGUE
    points_per_chart = 3
    leaves_per_chart = 3
    casimir_samples = 3

    def make_items(self, seed: int) -> list:
        rand = _rng(seed, self.name)
        items = []
        for descriptor in self.descriptors:
            L = liealg.algebra_from_descriptor(descriptor)
            size = 2 * L.dim
            for I in wonderful.all_subsets(L.rank):
                chart = logsympl.build_chart(L, I)
                for _ in range(self.points_per_chart):
                    values = [_fraction(rand) for _ in range(size)]
                    for i in I:
                        values[chart.z_index(i)] = _nonzero_fraction(rand)
                    items.append(("point", descriptor, I, chart.point(values)))
                p = wonderful.build_parabolic(L, I)
                free = L.rank - len(I)
                for k in range(self.leaves_per_chart):
                    first = [_fraction(rand) for _ in range(free)]
                    # every other pair shares its central part: same_leaf must say yes
                    second = first if k % 2 else [_fraction(rand) for _ in range(free)]
                    streams = ((first, rand.getrandbits(64)), (second, rand.getrandbits(64)))
                    items.append(("leaf", descriptor, I, (p, streams)))
                for S in wonderful.all_subsets(L.rank):
                    if S <= I:
                        items.append(("stratum", descriptor, I, (chart, S, rand.getrandbits(32))))
        return items

    def run(self, item):
        kind, _, _, data = item
        if kind == "point":
            bivector = logsympl.bivector_matrix(data)
            omega = logsympl.omega_matrix(data)
            return bivector.matrix, omega, bivector.matrix * omega, bivector.rank()
        if kind == "stratum":
            chart, S, seed = data
            return (
                logsympl.stratum_rank(chart, S),
                logsympl.casimir_check(chart, S, seed=seed, samples=self.casimir_samples),
            )
        p, ((script1, seed1), (script2, seed2)) = data
        xi1, xi2, central1 = suites.fiber_sample(p, _Replay(script1, SplitMix64(seed1)))
        eta1, eta2, central2 = suites.fiber_sample(p, _Replay(script2, SplitMix64(seed2)))
        return (
            (xi1, central1, logsympl.leaf_label(p, xi1), logsympl.leaf_sigma_values(p, xi1)),
            (eta1, central2, logsympl.leaf_label(p, eta1), logsympl.leaf_sigma_values(p, eta1)),
            logsympl.same_leaf(p, (xi1, xi2), (eta1, eta2)),
        )

    def check(self, item, output) -> bool:
        kind, descriptor, I, data = item
        L = liealg.algebra_from_descriptor(descriptor)
        size = 2 * L.dim
        if kind == "point":
            pi, omega, product, r = output
            own = oracles.matmul(_rows(pi), _rows(omega))
            # pi * omega = 1 makes pi invertible, so its rank is 2n off the divisor
            return own == oracles.identity(size) and _rows(product) == own and r == size
        if kind == "stratum":
            r, casimir = output
            _, S, _ = data
            return r == size - 2 * len(S) and casimir is True
        first, second, same = output
        for xi, central, label, sigma in (first, second):
            h = xi.coords[L.n_pos : L.n_pos + L.rank]
            if label != central or sigma != oracles.sigma_oracle(descriptor, I, h):
                return False
        return same == (first[1] == second[1])


# -- boundary-torus ----------------------------------------------------------------


class BoundaryTorus:
    """One item enumerates the torus-fixed boundary points of A2 through a seeded xi."""

    name = "boundary-torus"
    descriptors = ("A2",)
    count = 4
    # positive roots of A2 in simple-root coordinates
    positive_roots = ((1, 0), (0, 1), (1, 1))

    def make_items(self, seed: int) -> list:
        rand = _rng(seed, self.name)
        L = liealg.algebra_from_descriptor("A2")
        items = []
        for _ in range(self.count):
            while True:
                h = (_nonzero_fraction(rand, 5), _nonzero_fraction(rand, 5))
                values = oracles.simple_root_values("A2", h)
                if all(sum(m * v for m, v in zip(root, values)) for root in self.positive_roots):
                    break
            s = L.h(0).scale(h[0]) + L.h(1).scale(h[1])
            # unitriangular factors with entries +-1, +-2: det 1, and no zero entry
            # that would make one diagonalizer much cheaper than another
            e = [rand.choice((-2, -1, 1, 2)) for _ in range(6)]
            upper = [[1, e[0], e[1]], [0, 1, e[2]], [0, 0, 1]]
            lower = [[1, 0, 0], [e[3], 1, 0], [e[4], e[5], 1]]
            d = liealg.GroupElement(Mat(oracles.matmul(upper, lower)))
            items.append((liealg.conjugate(d, s), d))
        return items

    def run(self, item):
        xi, d = item
        return wonderful.torus_fixed_fiber_points(xi, d)

    def check(self, item, output) -> bool:
        xi, _ = item
        n = xi.algebra.dim
        if len(output) != oracles.torus_fixed_count("A2"):
            return False
        if dict(Counter(frozenset(q.I) for q in output)) != oracles.coset_counts(oracles.CARTAN["A2"]):
            return False
        pair = list(xi.coords) * 2
        fibers = set()
        for q in output:
            fiber = oracles.echelon(q.realized_fiber.basis.row_list())
            if len(fiber) != n or not oracles.in_row_space(fiber, pair):
                return False
            fibers.add(fiber)
        return len(fibers) == len(output)


WORKLOADS = {w.name: w for w in (VerifyA2, ChartsLeaves, BoundaryTorus)}


def run_passes(workload, items, clock, min_passes: int, deadline: float, between=None, paused=None):
    """Run every item in whole passes over the list, at least `min_passes` times.

    After `min_passes`, a further pass starts only if the last one would
    still end before `deadline`, so a run ends near its deadline and every
    item has the same number of repeats.  Returns (the (start, end, busy)
    of each pass of each good item, failed, wrong, passes).  `busy` is the
    span less what `paused()`, a running total of seconds the benchmark
    spent on its own work, grew by during it.  An item fails when `run`
    raises, when its first output fails its check, or when a later pass
    gives a different output; the last two also count as wrong.  Only
    `run` is inside the timed span.  `between`, if given, is called after
    each pass.
    """
    spans = [[] for _ in items]
    first = [None] * len(items)
    failed = [False] * len(items)
    wrong = 0
    passes = 0
    last = 0.0
    while passes < min_passes or clock() + last <= deadline:
        begin = clock()
        for k, item in enumerate(items):
            if failed[k]:
                continue
            before = paused() if paused else 0.0
            start = clock()
            try:
                output = workload.run(item)
            except Exception:
                failed[k] = True
                continue
            end = clock()
            busy = end - start - ((paused() - before) if paused else 0.0)
            if passes == 0:
                try:
                    good = workload.check(item, output)
                except Exception:
                    good = False
                first[k] = output
            else:
                good = output == first[k]
            if not good:
                failed[k] = True
                wrong += 1
            spans[k].append((start, end, busy))
        passes += 1
        if between is not None:
            between()
        last = clock() - begin
    return [t for t, f in zip(spans, failed) if not f], sum(failed), wrong, passes


def median_latencies(spans, scale=None) -> list:
    """Each item's median latency over its passes, each one multiplied by `scale(start, end)`.

    The repeats of one item are a pass apart.  The host's speed changes in
    phases of seconds to minutes; the median over the repeats reads the
    speed most of them ran at, where the best one would read whether a
    fast phase happened to fall in the run.
    """
    if scale is None:
        return [statistics.median(busy for _, _, busy in item) for item in spans]
    return [statistics.median(busy * scale(start, end) for start, end, busy in item) for item in spans]
