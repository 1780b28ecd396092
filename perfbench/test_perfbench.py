"""Tests of the benchmark itself: the oracles, and that every check bites.

    python3 -m pytest perfbench

Each check is shown to pass on the program's real output and to reject
a corrupted copy of it, and a rejected output is shown to count as a
failed item.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ucz.exactlin import Mat, Subspace  # noqa: E402
from ucz.wonderful import BoundaryPoint  # noqa: E402


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    reported = {name: unit for name, (_, unit) in tracing.Tracer().metrics().items()}
    reported["trace.items_per_s_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- oracles --------------------------------------------------------------------


def test_weyl_fan_count_formula():
    counts = {d: oracles.torus_fixed_count(d) for d in oracles.CARTAN}
    assert counts == {"A1": 2, "A2": 12, "A3": 74, "B2": 16, "G2": 24}


def test_coset_counts_per_orbit():
    f = frozenset
    assert oracles.coset_counts(oracles.CARTAN["A2"]) == {f(): 6, f({1}): 3, f({2}): 3}
    a3 = oracles.coset_counts(oracles.CARTAN["A3"])
    assert a3[f({1, 3})] == 6 and a3[f({1, 2})] == 4 and a3[f()] == 24


def test_weyl_group_orders():
    orders = {d: len(oracles.weyl_group(A)) for d, A in oracles.CARTAN.items()}
    assert orders == {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "G2": 12}


def test_matmul_and_echelon():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert oracles.matmul(a, oracles.identity(2)) == a
    assert oracles.matmul(a, a) == [[7, 10], [15, 22]]
    assert oracles.rank(a) == 2
    assert oracles.rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert oracles.echelon([[2, 4], [1, 3]]) == oracles.echelon([[1, 0], [0, 1]])
    assert oracles.in_row_space([[1, 1, 0]], [3, 3, 0])
    assert not oracles.in_row_space([[1, 1, 0]], [3, 2, 0])


def test_sigma_oracle_removes_the_levi_coroots():
    # A2, I = {1}: h = h_1 lies in the derived Levi, so its central part is 0
    assert oracles.sigma_oracle("A2", {1}, (1, 0)) == (0,)
    # I empty: the values are alpha_1(t), alpha_2(t) read off the Cartan matrix
    assert oracles.sigma_oracle("A2", set(), (1, 2)) == (0, 3)
    assert oracles.sigma_oracle("G2", set(), (1, 0)) == (2, -3)


# -- checks reject corrupted outputs ---------------------------------------------------


def _flip(m: Mat, i: int, j: int) -> Mat:
    rows = [list(r) for r in m.row_list()]
    rows[i][j] += 1
    return Mat(rows)


def _run(workload, items, passes=1):
    spans, failed, wrong, passes = workloads.run_passes(workload, items, time.perf_counter, passes, 0.0)
    return workloads.median_latencies(spans), failed, wrong, passes


def _counted_as_failed(workload, item, corrupt) -> int:
    """Failures run_passes reports when `run` hands back corrupt(real output)."""

    class Corrupting(type(workload)):
        def run(self, it):
            return corrupt(workload.run(it))

    latencies, failed, wrong, _ = _run(Corrupting(), [item])
    assert latencies == [] and wrong == failed
    return failed


@pytest.fixture(scope="module")
def charts():
    w = workloads.ChartsLeaves()
    workloads.build_catalogue(w.descriptors)
    items = w.make_items(seed=3)
    return w, {kind: [it for it in items if it[0] == kind] for kind in ("point", "stratum", "leaf")}


def test_charts_items_pass_and_cover_every_chart(charts):
    w, by_kind = charts
    items = [it for kind in by_kind.values() for it in kind]
    latencies, failed, wrong, passes = _run(w, items, passes=2)
    assert (failed, wrong, passes) == (0, 0, 2) and len(latencies) == len(items)
    charts_seen = {(it[1], it[2]) for it in by_kind["point"]}
    assert len(charts_seen) == 2 + 4 + 8 + 4 + 4
    assert len(by_kind["stratum"]) == 3 + 9 + 27 + 9 + 9
    # both branches of same_leaf occur
    assert {w.run(it)[2] for it in by_kind["leaf"]} == {True, False}


def test_chart_point_check_rejects_a_flipped_entry(charts):
    w, by_kind = charts
    item = next(it for it in by_kind["point"] if it[1] == "A3")
    pi, omega, product, r = w.run(item)
    assert w.check(item, (pi, omega, product, r))
    assert not w.check(item, (_flip(pi, 0, 0), omega, product, r))
    assert not w.check(item, (pi, _flip(omega, 3, 5), product, r))
    assert not w.check(item, (pi, omega, _flip(product, 2, 2), r))
    assert not w.check(item, (pi, omega, product, r - 1))
    assert _counted_as_failed(w, item, lambda out: (_flip(out[0], 1, 0),) + out[1:]) == 1


def test_stratum_check_rejects_wrong_rank_or_casimir(charts):
    w, by_kind = charts
    item = next(it for it in by_kind["stratum"] if len(it[3][1]) == 2)
    r, casimir = w.run(item)
    assert w.check(item, (r, casimir))
    assert not w.check(item, (r + 1, casimir))
    assert not w.check(item, (r, False))
    assert _counted_as_failed(w, item, lambda out: (out[0] - 2, out[1])) == 1


def test_leaf_check_rejects_wrong_label_sigma_or_verdict(charts):
    w, by_kind = charts
    item = next(it for it in by_kind["leaf"] if it[1] == "A3" and len(it[2]) == 1)
    first, second, same = w.run(item)
    assert w.check(item, (first, second, same))
    xi, central, label, sigma = first
    bumped = tuple(x + 1 if k == 0 else x for k, x in enumerate(label))
    assert not w.check(item, ((xi, central, bumped, sigma), second, same))
    bumped = tuple(x + 1 if k == 0 else x for k, x in enumerate(sigma))
    assert not w.check(item, ((xi, central, label, bumped), second, same))
    assert not w.check(item, (first, second, not same))
    assert _counted_as_failed(w, item, lambda out: (out[0], out[1], not out[2])) == 1


@pytest.fixture(scope="module")
def torus():
    w = workloads.BoundaryTorus()
    workloads.build_catalogue(w.descriptors)
    item = w.make_items(seed=5)[0]
    return w, item, w.run(item)


def _with_fiber(q: BoundaryPoint, basis: Mat) -> BoundaryPoint:
    return BoundaryPoint(q.algebra, q.I, q.g1, q.g2, Subspace(basis.cols, basis, _canonical=True))


def test_torus_check_rejects_bad_counts_duplicates_and_fibers(torus):
    w, item, points = torus
    assert w.check(item, points)
    assert not w.check(item, points[:-1])
    assert not w.check(item, points + points[:1])
    # same total, one orbit short: a point relabelled into another orbit
    q = points[0]
    other = next(p.I for p in points if p.I != q.I)
    moved = BoundaryPoint(q.algebra, other, q.g1, q.g2, q.realized_fiber)
    assert not w.check(item, [moved] + points[1:])
    # right counts, but two equal points
    twin = next(k for k, p in enumerate(points) if k and p.I == q.I)
    assert not w.check(item, points[:twin] + [q] + points[twin + 1 :])
    # one flipped entry of one fiber basis, in a row that (xi, xi) needs
    pair = list(item[0].coords) * 2
    rows = q.realized_fiber.basis.row_list()
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    k = next(k for k, p in enumerate(pivots) if pair[p])
    j = next(j for j in range(len(pair)) if j not in pivots)
    flipped = _with_fiber(q, _flip(q.realized_fiber.basis, k, j))
    assert not w.check(item, [flipped] + points[1:])
    assert _counted_as_failed(w, item, lambda out: out[1:]) == 1


@pytest.fixture(scope="module")
def verify():
    w = workloads.VerifyA2()
    workloads.build_catalogue(w.descriptors)
    item = w.make_items(seed=7)[0]
    return w, item, w.run(item)


def _edit_check(text: str, passed: int, total: int) -> str:
    """The report with the first check of the first suite set to passed/total, sums kept."""
    doc = json.loads(text)
    suite = doc["suites"][0]
    check = suite["details"][0]
    suite["passed"] += passed - check["passed"]
    suite["total"] += total - check["total"]
    check["passed"], check["total"] = passed, total
    return json.dumps(doc, indent=2) + "\n"


def test_verify_check_rejects_failures_and_empty_counts(verify):
    w, item, (code, text) = verify
    assert w.check(item, (code, text))
    assert w.check(item, (code, _edit_check(text, 3, 3)))
    assert not w.check(item, (1, text))
    assert not w.check(item, (code, _edit_check(text, 2, 3)))
    # a 0/0 check is not a pass
    assert not w.check(item, (code, _edit_check(text, 0, 0)))
    with pytest.raises(ValueError):
        w.check(item, (code, text[:-3]))
    assert _counted_as_failed(w, item, lambda out: (out[0], out[1][:-3])) == 1


def test_a_later_pass_with_other_bytes_counts_as_wrong(verify):
    w, item, output = verify

    class Drifting(workloads.VerifyA2):
        calls = 0

        def run(self, it):
            self.calls += 1
            return output if self.calls == 1 else (output[0], output[1] + " ")

    assert _run(workloads.VerifyA2(), [item], passes=2)[1:3] == (0, 0)
    assert _run(Drifting(), [item], passes=2) == ([], 1, 1, 2)


def test_a_raising_item_counts_as_failed():
    class Raising(workloads.BoundaryTorus):
        def run(self, item):
            raise ArithmeticError("boom")

    # a raising item fails but is not a wrong output
    assert _run(Raising(), [None, None], passes=2) == ([], 2, 0, 2)


# -- passes and host speed --------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_passes_fit_the_deadline_and_report_median_latency():
    clock = _FakeClock()
    paused = [0.0]

    class Timed(workloads.BoundaryTorus):
        durations = iter([1.0, 2.0, 5.0, 2.0, 3.0, 2.0, 1.0, 2.0])

        def run(self, item):
            step = next(self.durations)
            clock.now += step
            if step == 5.0:
                paused[0] += 1.0  # one second of it went to the benchmark's own work
            return item

        def check(self, item, output):
            return True

    # passes of 3, 7, 5 and 3 s: after the third, at 15 s, the next would end past 19 s
    spans, failed, wrong, passes = workloads.run_passes(
        Timed(), [0, 1], clock, 2, 19.0, paused=lambda: paused[0]
    )
    assert (failed, wrong, passes) == (0, 0, 3)
    assert spans == [
        [(0.0, 1.0, 1.0), (3.0, 8.0, 4.0), (10.0, 13.0, 3.0)],
        [(1.0, 3.0, 2.0), (8.0, 10.0, 2.0), (13.0, 15.0, 2.0)],
    ]
    assert workloads.median_latencies(spans) == [3.0, 2.0]
    # a time scaled by 2 in the second half of the run
    assert workloads.median_latencies(spans, lambda start, end: 2.0 if start >= 8 else 1.0) == [4.0, 4.0]


def test_host_speed_scales_by_the_chunks_next_to_a_time(monkeypatch):
    assert oracles.rank(hostspeed.chunk()) == 8
    clock = _FakeClock()
    chunk_s = [0.010]

    def chunk():
        clock.now += chunk_s[0]

    monkeypatch.setattr(hostspeed, "chunk", chunk)
    host = hostspeed.HostSpeed(clock)
    for now, seconds in ((10.0, 0.01), (10.1, 0.01), (10.2, 0.01), (11.0, 0.03), (11.1, 0.03), (11.2, 0.03)):
        clock.now, chunk_s[0] = now, seconds
        host.sample()
    assert host.spent == pytest.approx(0.12)
    assert host.median_chunk() == pytest.approx(0.020)
    # each time is scaled by the chunks within half a second of it, or else the nearest three
    assert host.scale(10.0, 10.1) == pytest.approx(hostspeed.REFERENCE_CHUNK_S / 0.010)
    assert host.scale(11.5, 11.6) == pytest.approx(hostspeed.REFERENCE_CHUNK_S / 0.030)
    assert host.scale(30.0, 31.0) == pytest.approx(hostspeed.REFERENCE_CHUNK_S / 0.030)


def test_host_speed_samples_on_a_timer_until_stopped():
    host = hostspeed.HostSpeed(time.perf_counter, every=0.05)
    host.start()
    try:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        host.stop()
    taken = len(host.samples)
    time.sleep(0.2)
    assert 3 <= taken == len(host.samples)
    assert host.spent == pytest.approx(sum(s for _, s in host.samples))
