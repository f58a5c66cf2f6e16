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
    row = bench_pairs._summary(runs, ["w"], {"wall_s": 0.25})["w"]
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
    row = bench_pairs._summary(runs, ["w"], {"wall_s": 0.25})["w"]
    assert row["wall_s"]["change_lower_in_pairs"] == "1/1"
    assert row["wall_s"]["change"]["n"] == 1
    assert row["all_correct"] is False


@pytest.mark.parametrize("values, expected", [
    ([], {"n": 0}),
    ([1.0], {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}),
    ([4.0, 1.0, 3.0, 2.0], {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}),
])
def test_quartiles_are_linear_percentiles(values, expected):
    assert bench_pairs._quartiles(values) == expected


def test_summary_counts_pairs_whose_outputs_are_identical():
    runs = [run("parent", 0, 2.0), run("change", 0, 1.0),
            run("parent", 1, 2.0), run("change", 1, 1.0),
            run("parent", 2, 2.0), run("change", 2, 1.0)]
    for r, digest in zip(runs, ["a", "a", "b", "c", "d", "d"]):
        r["outputs_sha256"] = digest
    # a run without a digest leaves its pair out of the count
    runs.append(run("parent", 3, 2.0))
    runs.append({**run("change", 3, 1.0), "outputs_sha256": "e"})
    row = bench_pairs._summary(runs, ["w"], {"wall_s": 0.25})["w"]
    assert row["outputs_identical_in_pairs"] == "2/3"


def test_source_lines_count_every_library_module_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "ccnet"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
    (pkg / "notes.txt").write_text("not code\n")
    (tmp_path / "src" / "other.py").write_text("outside\n")
    assert bench_pairs._source_lines(tmp_path) == 3


def test_outputs_digest_covers_names_and_bytes_but_not_the_run_record(tmp_path):
    work = tmp_path / "w"
    (work / "sub").mkdir(parents=True)
    (work / "report.json").write_text("{}\n")
    (work / "sub" / "fig.svg").write_text("<svg/>\n")
    digest = bench_pairs._outputs_digest(work)
    (work / "result.json").write_text('{"wall_s": 1}\n')
    (work / "trace.json").write_text("[]\n")
    assert bench_pairs._outputs_digest(work) == digest
    (work / "sub" / "fig.svg").write_text("<svg />\n")
    changed = bench_pairs._outputs_digest(work)
    assert changed != digest
    (work / "sub" / "fig.svg").rename(work / "sub" / "fig2.svg")
    assert bench_pairs._outputs_digest(work) not in (digest, changed)


def _pairs(parent, change):
    return [run(side, pair, v) for pair, (p, c) in enumerate(zip(parent, change))
            for side, v in (("parent", p), ("change", c))]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # q1 9.925, q3 10.1


@pytest.mark.parametrize("change, resolved", [
    ([v - 1.0 for v in PARENT], True),
    # nine pairs in ten suffice; a tie counts for neither side
    ([v - 1.0 for v in PARENT[:9]] + [PARENT[9]], True),
    ([v - 1.0 for v in PARENT[:8]] + PARENT[8:], False),
    ([v + 1.0 for v in PARENT], False),
    # lower in every pair, but the medians differ by less than q3 - q1 = 0.175
    ([v - 0.1 for v in PARENT], False),
], ids=["all-lower", "nine-lower-one-tie", "eight-lower", "all-higher", "inside-the-spread"])
def test_gain_resolved_needs_nine_pairs_in_ten_and_a_step_beyond_the_spread(change, resolved):
    row = bench_pairs._summary(_pairs(PARENT, change), ["w"], {"wall_s": 0.25})["w"]
    assert row["wall_s"]["gain_resolved"] is resolved


def test_gain_resolved_counts_a_crashed_pair_against_the_change():
    runs = _pairs(PARENT, [v - 1.0 for v in PARENT])
    runs[-1] = {"side": "change", "workload": "w", "pair": 9,
                "result": {"returncode": 1, "stderr": ["Traceback"]}}
    runs[-3] = {**runs[-3], "result": {"returncode": 1, "stderr": ["Traceback"]}}
    row = bench_pairs._summary(runs, ["w"], {"wall_s": 0.25})["w"]
    assert row["wall_s"]["change_lower_in_pairs"] == "8/8"
    assert row["wall_s"]["gain_resolved"] is False


@pytest.mark.parametrize("shift, bound, within", [
    (1.0, 0.25, True), (2.5, 0.25, True), (2.6, 0.25, False), (0.5, 0.04, False),
    (-3.0, 0.0, True),
], ids=["inside", "at-the-bound", "beyond", "beyond-a-tight-bound", "better"])
def test_within_bound_compares_the_medians_by_the_relative_bound(shift, bound, within):
    # the parent's median is 10.0: the bound admits a change median up to 10 (1 + bound)
    runs = _pairs(PARENT, [v + shift for v in PARENT])
    row = bench_pairs._summary(runs, ["w"], {"wall_s": bound})["w"]
    assert row["wall_s"]["within_bound"] is within


def test_a_side_whose_runs_all_crashed_gets_no_verdict():
    crashed = {"returncode": 1, "stderr": ["Traceback"]}
    runs = [run("parent", 0, 2.0), {**run("change", 0, 1.0), "result": crashed}]
    row = bench_pairs._summary(runs, ["w"], {"wall_s": 0.25})["w"]
    assert row["wall_s"]["change"] == {"n": 0}
    assert row["wall_s"]["gain_resolved"] is False and row["wall_s"]["within_bound"] is False
    assert row["all_correct"] is False
