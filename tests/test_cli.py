import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ccnet
from ccnet import BUILTIN_SCHEME_IDS
from ccnet.cli import build_parser, main
from ccnet.gof import DEFAULT_REPLICATES
from ccnet.io import MEASURE_SETS
from helpers import make_tradelike, write_edges


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    g = make_tradelike(14, 9)
    edges = write_edges(base / "edges.csv", g)
    factors = base / "factors.csv"
    factors.write_text("year,factor\n1990,1.0\n2000,2.0\n", encoding="utf-8")
    e_th = min(w for _, _, w in g.edge_list())
    return base, edges, str(factors), e_th


def test_analyze_writes_report(workdir):
    base, edges, factors, e_th = workdir
    out = base / "report.json"
    code = main(["analyze", "--edges", edges, "--threshold", str(e_th),
                 "--factor-file", factors, "--year", "1990",
                 "--seed", "3", "--replicates", "2500", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["year"] == 1990
    assert len(doc["generations"]) == 15


def test_analyze_repeat_is_byte_identical(workdir):
    base, edges, _, e_th = workdir
    out1 = base / "r1.json"
    out2 = base / "r2.json"
    for out in (out1, out2):
        assert main(["analyze", "--edges", edges, "--threshold", str(e_th),
                     "--seed", "7", "--replicates", "2500", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_missing_year_with_factors(workdir):
    base, edges, factors, e_th = workdir
    code = main(["analyze", "--edges", edges, "--threshold", str(e_th),
                 "--factor-file", factors, "--out", str(base / "x.json")])
    assert code == 2


def test_simulate_writes_csv_and_json(workdir):
    base, *_ = workdir
    prefix = base / "study"
    code = main(["simulate", "--sizes", "100,200", "--p-realizations", "2",
                 "--stat-realizations", "4", "--replicates", "2500",
                 "--seed", "1", "--out", str(prefix)])
    assert code == 0
    csv_text = (base / "study.csv").read_text()
    assert csv_text.startswith("size,p_mean")
    doc = json.loads((base / "study.json").read_text())
    assert [row["size"] for row in doc["rows"]] == [100, 200]


def test_simulate_control_flag(workdir):
    base, *_ = workdir
    prefix = base / "control"
    code = main(["simulate", "--sizes", "100", "--p-realizations", "2",
                 "--stat-realizations", "4", "--replicates", "2500",
                 "--seed", "1", "--control", "--out", str(prefix)])
    assert code == 0
    assert (base / "control.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags, name", [
    (["--sizes", ""], "sizes"),
    (["--sizes", "100", "--p-realizations", "1"], "p_realizations"),
    (["--sizes", "100", "--stat-realizations", "1"], "stat_realizations"),
], ids=["empty-sizes", "one-p", "one-stat"])
def test_simulate_degenerate_arguments_exit_two(tmp_path, capsys, flags, name):
    prefix = tmp_path / "study"
    code = main(["simulate", *flags, "--replicates", "2500", "--out", str(prefix)])
    assert code == 2
    assert f"ccnet: error: {name} must" in capsys.readouterr().err
    assert not (tmp_path / "study.csv").exists()
    assert not (tmp_path / "study.json").exists()


def test_ngfp_and_cdf(workdir):
    base, edges, _, e_th = workdir
    report = base / "report.json"
    if not report.exists():
        main(["analyze", "--edges", edges, "--threshold", str(e_th),
              "--replicates", "2500", "--out", str(report)])
    doc = json.loads(report.read_text())
    node = doc["nodes"][0]
    svg = base / "ngfp.svg"
    assert main(["ngfp", "--reports", str(report), "--node", node,
                 "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")

    cdf = base / "cdf.svg"
    assert main(["cdf", "--reports", str(report), "--out", str(cdf)]) == 0
    assert "D = " in cdf.read_text()


def test_cdf_from_values_file(workdir):
    base, *_ = workdir
    values = base / "vals.txt"
    rng = np.random.default_rng(0)
    values.write_text("\n".join(repr(float(v)) for v in rng.standard_normal(60)) + "\n")
    out = base / "cdf2.svg"
    assert main(["cdf", "--values", str(values), "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("command", ["standardize", "cdf"])
def test_values_file_bad_line_is_located(tmp_path, capsys, command):
    values = tmp_path / "vals.txt"
    values.write_text("1.5\n2.5\n\nsource,target,weight\n3.5\n")
    assert main([command, "--values", str(values), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"ccnet: error: {values}: line 4: non-numeric value 'source,target,weight'\n"


@pytest.mark.parametrize("command, name, text, message", [
    ("analyze", "s.json", '{"name": "top", "children": 5}',
     "children of scheme node 'top' must be a list\n"),
    ("analyze", "s.json", '{"name": "top", "children": null}',
     "children of scheme node 'top' must be a list\n"),
    ("ngfp", "r.json", "[1, 2]",
     "not a ccnet report: TypeError: list indices must be integers or slices, not str\n"),
    ("cdf", "r.json", '{"meta": {}}', "not a ccnet report: KeyError: 'source'\n"),
    ("cdf", "v.txt", "-1.7e308\n0\n1\n2\n1.7e308\n",
     "scores from -1.7e+308 to 1.7e+308 span more than the float range\n"),
    ("standardize", "v.txt", "1e308\n1.5e308\n1.7e308\n1.1e308\n",
     "measure 'measure': the pre-shift and mean scaling leave a non-positive value; "),
], ids=["children-number", "children-null", "report-list", "report-empty-meta",
        "cdf-span", "standardize-overflow"])
def test_bad_input_is_one_error_line(workdir, tmp_path, capsys, command, name, text, message):
    _, edges, _, e_th = workdir
    path = tmp_path / name
    path.write_text(text)
    argv = {"analyze": ["--edges", edges, "--threshold", str(e_th), "--scheme", str(path)],
            "ngfp": ["--reports", str(path), "--node", "a"],
            "cdf": ["--values" if name == "v.txt" else "--reports", str(path)],
            "standardize": ["--values", str(path)]}[command]
    assert main([command, *argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ccnet: error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_output_goes_to_stdout_without_out(tmp_path, capsys):
    values = tmp_path / "raw.txt"
    values.write_text("1.0\n2.0\n4.0\n8.0\n")
    assert main(["standardize", "--values", str(values), "--name", "demo"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "demo"


def test_cdf_requires_one_source(workdir):
    base, *_ = workdir
    assert main(["cdf", "--out", str(base / "no.svg")]) == 2


def test_standardize_command(workdir):
    base, *_ = workdir
    values = base / "raw.txt"
    rng = np.random.default_rng(1)
    values.write_text("\n".join(repr(float(v)) for v in rng.lognormal(0, 1, 80)) + "\n")
    out = base / "std.json"
    assert main(["standardize", "--values", str(values), "--name", "demo",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "demo"
    vals = np.array(doc["values"])
    assert abs(vals.mean()) < 1e-9
    assert abs(vals.std(ddof=1) - 1.0) < 1e-9
    assert "box_cox_lambda" in doc["params"]


def test_cli_matches_library_call(workdir):
    # no hidden state: the subcommand output equals the direct library result
    from ccnet import analyze, report_to_json

    base, edges, _, e_th = workdir
    out = base / "via_cli.json"
    assert main(["analyze", "--edges", edges, "--threshold", str(e_th),
                 "--seed", "11", "--replicates", "2500", "--out", str(out)]) == 0
    direct = report_to_json(analyze(edges, e_th, seed=11, replicates=2500))
    assert out.read_text(encoding="utf-8") == direct


def test_error_paths_return_two(workdir, tmp_path):
    base, *_ = workdir
    missing = str(tmp_path / "none.csv")
    assert main(["analyze", "--edges", missing, "--threshold", "1.0",
                 "--out", str(base / "no.json")]) == 2


def test_bad_threshold_message_same_with_factor_file(workdir, capsys):
    base, edges, factors, _ = workdir
    errors = []
    for extra in ([], ["--factor-file", factors, "--year", "2000"]):
        assert main(["analyze", "--edges", edges, "--threshold", "-1", *extra,
                     "--out", str(base / "no.json")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["ccnet: error: threshold must be positive and finite, got -1.0\n"] * 2


def test_parser_reads_library_constants():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {a.dest: a for a in p._actions} for name, p in sub.choices.items()}
    analyze = options["analyze"]
    assert tuple(analyze["measures"].choices) == MEASURE_SETS
    assert analyze["replicates"].default == DEFAULT_REPLICATES
    assert options["simulate"]["replicates"].default == DEFAULT_REPLICATES
    assert f"({'|'.join(BUILTIN_SCHEME_IDS)})" in analyze["scheme"].help


# runs the CLI commands given as a JSON list of argv lists in its first
# argument, in an interpreter in which any import of scipy raises ImportError
NO_SCIPY_RUN = """
import json
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from ccnet.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def test_cli_runs_without_scipy(workdir, tmp_path):
    _, edges, _, e_th = workdir

    def runs(out, node):
        report = str(out / "report.json")
        return [["analyze", "--edges", edges, "--threshold", str(e_th), "--seed", "5",
                 "--replicates", "2500", "--out", report],
                ["ngfp", "--reports", report, "--node", node, "--out", str(out / "ngfp.svg")],
                ["cdf", "--reports", report, "--out", str(out / "cdf.svg")]]

    here, there = tmp_path / "in_process", tmp_path / "no_scipy"
    here.mkdir()
    there.mkdir()
    assert main(runs(here, "")[0]) == 0
    node = json.loads((here / "report.json").read_text())["nodes"][0]
    for argv in runs(here, node)[1:]:
        assert main(argv) == 0

    src = os.path.dirname(os.path.dirname(ccnet.__file__))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, json.dumps(runs(there, node))],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    for name in ("report.json", "ngfp.svg", "cdf.svg"):
        assert (there / name).read_bytes() == (here / name).read_bytes(), name
