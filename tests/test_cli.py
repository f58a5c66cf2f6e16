import json

import numpy as np
import pytest

from ccnet.cli import main
from helpers import make_tradelike


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    g = make_tradelike(14, 9)
    edges = base / "edges.csv"
    lines = ["source,target,weight"]
    lines += [f"{s},{t},{w!r}" for s, t, w in g.edge_list()]
    edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
    factors = base / "factors.csv"
    factors.write_text("year,factor\n1990,1.0\n2000,2.0\n", encoding="utf-8")
    e_th = min(w for _, _, w in g.edge_list())
    return base, str(edges), str(factors), e_th


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
