"""`tools/bench.py` merges the repeats of each traced benchmark run.

Counts must agree across the repeats and are kept as they are; times
are the least of the repeats; a run that is not correct, or that failed
an item, stops the tool.  The algebras it verifies are each checkout's
own `ucz.ALGEBRA_DESCRIPTORS`.
"""

import importlib.util
from pathlib import Path

import pytest

from ucz import ALGEBRA_DESCRIPTORS

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("ucz_bench_tool", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_algebras_are_the_checkouts_catalogue(bench):
    # read from the package in a fresh process, as the tool keeps ucz out of its own
    assert bench._algebras("change", BENCH.parents[1] / "src") == list(ALGEBRA_DESCRIPTORS)


def traced(calls: int, fractions: int, self_s: float, correct=True, failed=0) -> dict:
    """A result line of `perfbench/run.py --trace 1`, cut down to three metrics."""
    metrics = {
        "fractions.new.calls": {"value": fractions, "unit": "count"},
        "exactlin.rank.calls": {"value": calls, "unit": "count"},
        "exactlin.rank.self_s": {"value": self_s, "unit": "s"},
    }
    return {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}


def test_self_times_are_the_minimum_and_counts_are_kept(bench):
    runs = [traced(12, 345, 0.03), traced(12, 345, 0.01), traced(12, 345, 0.02)]
    assert bench.merge_traced("change: traced w", runs) == {
        "fractions.new.calls": 345,
        "exactlin.rank.calls": 12,
        "exactlin.rank.self_s": 0.01,
    }


@pytest.mark.parametrize(
    "odd",
    [traced(13, 345, 0.01), traced(12, 346, 0.01)],
    ids=["layer count", "fraction count"],
)
def test_counts_that_differ_between_repeats_are_refused(bench, odd):
    with pytest.raises(bench.BenchError, match="differs between repeats"):
        bench.merge_traced("change: traced w", [traced(12, 345, 0.02), odd])


@pytest.mark.parametrize(
    "bad",
    [traced(12, 345, 0.01, correct=False), traced(12, 345, 0.01, failed=1)],
    ids=["not correct", "failed item"],
)
def test_a_run_that_is_not_correct_is_refused(bench, bad):
    with pytest.raises(bench.BenchError, match="parent: traced boundary-torus"):
        bench.merge_traced("parent: traced boundary-torus", [traced(12, 345, 0.02), bad])
