"""The summary that tools/bench_pairs.py writes for alternating parent/change pairs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(side, pair, wall, attempted=10, failed=0, correct=True):
    return {"side": side, "workload": "w", "pair": pair,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}


def test_summary_counts_pairs_the_change_reads_lower():
    runs = [run("parent", 0, 2.0), run("change", 0, 1.0),
            run("change", 1, 3.0), run("parent", 1, 3.0),
            run("parent", 2, 4.0), run("change", 2, 5.0, failed=1)]
    row = bench_pairs._summary(runs, ["w"], ["wall_s"])["w"]
    assert row["wall_s"]["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5, "n": 3}
    assert row["wall_s"]["change"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 3}
    # a tie counts for neither side
    assert row["wall_s"]["change_lower_in_pairs"] == "1/3"
    assert row["failed_ops"] == {"parent": 0, "change": 1}
    assert row["attempted_ops"] == {"parent": 30, "change": 30}
    assert row["all_correct"] is True


def test_a_failed_run_leaves_its_pair_out_and_is_not_correct():
    crashed = {"side": "change", "workload": "w", "pair": 1,
               "result": {"returncode": 1, "stderr": ["Traceback"]}}
    runs = [run("parent", 0, 2.0), run("change", 0, 1.0), run("parent", 1, 2.0), crashed]
    row = bench_pairs._summary(runs, ["w"], ["wall_s"])["w"]
    assert row["wall_s"]["change_lower_in_pairs"] == "1/1"
    assert row["wall_s"]["change"]["n"] == 1
    assert row["all_correct"] is False


@pytest.mark.parametrize("values, expected", [
    ([1.0], {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}),
    ([4.0, 1.0, 3.0, 2.0], {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}),
])
def test_quartiles_are_linear_percentiles(values, expected):
    assert bench_pairs._quartiles(values) == expected
