"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --first-seed 6601 --change "what the change does"

Both sides run the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``)
with the same options: the parent side from a temporary copy of ``HEAD``
(extracted with ``git archive``), the change side from the working tree.  Pair
k of ``PAIRS`` runs every workload on both sides at seed ``--first-seed + k``,
the parent first in even pairs and the change first in odd pairs, the workloads
taking turns within the pair.  After each of these runs the files it left in
``<side>/.perfbench_work/<workload>/`` (inputs, reports, figures, studies; not
``result.json`` or ``trace.json``) are hashed into one digest, so the summary
can say in how many pairs both sides wrote the same bytes.  Then each side
makes one ``--trace 1`` run per workload and one ``perfbench/scale.py --n 100``
run.  The doc also records each side's code size: the lines of
``src/ccnet/*.py``, counted as ``wc -l`` counts them.

Every run has ``PYTHONDONTWRITEBYTECODE=1``, and ``__pycache__`` is removed from
both sides' ``src/`` and ``perfbench/`` first, so neither side imports
bytecode that the other has to compile.  The runs and their summary (medians,
quartiles, the pairs in which the change read lower, operation counts and
whether every check passed) go to ``BENCH_<parent short sha>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
PAIRS = 10
# the traced runs give the per-layer split, so one short run per side and workload
TRACE_SEED = 7
TRACE_SECONDS = 8.0
# what perfbench/run.py writes about a run rather than what the workload made
NOT_OUTPUTS = {"result.json", "trace.json"}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _drop_bytecode(root: Path) -> None:
    for sub in ("src", "perfbench"):
        for cache in (root / sub).rglob("__pycache__"):
            shutil.rmtree(cache)


def _run(root: Path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=root, env=ENV, capture_output=True, text=True)


def _bench(root: Path, command: list[str], workload: str, seed: int, seconds: float,
           trace: int) -> dict:
    """One benchmark run's result line, or its exit status and the end of its stderr."""
    proc = _run(root, [*command, "--workload", workload, "--seed", str(seed),
                       "--seconds", f"{seconds:g}", "--trace", str(trace)])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    return {"returncode": proc.returncode, "stderr": proc.stderr.strip().splitlines()[-5:]}


def _outputs_digest(work: Path) -> str:
    """sha256 over the sorted relative names and bytes of the files under ``work``."""
    h = hashlib.sha256()
    files = sorted(p for p in work.rglob("*") if p.is_file() and p.name not in NOT_OUTPUTS)
    for path in files:
        data = path.read_bytes()
        h.update(f"{path.relative_to(work).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _source_lines(root: Path) -> int:
    """Newline count over ``src/ccnet/*.py``, the total ``wc -l`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "ccnet").glob("*.py"))


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "n": len(values)}


def _summary(runs: list[dict], workloads: list[str], metrics: list[str]) -> dict:
    out = {}
    for wl in workloads:
        mine = [r for r in runs if r["workload"] == wl]
        value = {(r["side"], r["pair"], m): r["result"]["metrics"][m]["value"]
                 for r in mine if "metrics" in r["result"] for m in metrics}
        pairs = sorted({r["pair"] for r in mine})
        row: dict = {}
        for m in metrics:
            both = [p for p in pairs if ("parent", p, m) in value and ("change", p, m) in value]
            lower = sum(value["change", p, m] < value["parent", p, m] for p in both)
            row[m] = {side: _quartiles([v for (s, _, k), v in value.items() if s == side and k == m])
                      for side in ("parent", "change")}
            row[m]["change_lower_in_pairs"] = f"{lower}/{len(both)}"
        for key, field in (("failed_ops", "failed"), ("attempted_ops", "attempted")):
            row[key] = {side: sum(r["result"].get(field, 0) for r in mine if r["side"] == side)
                        for side in ("parent", "change")}
        row["all_correct"] = all(r["result"].get("correct", False) for r in mine)
        digest = {(r["side"], r["pair"]): r["outputs_sha256"]
                  for r in mine if "outputs_sha256" in r}
        both = [p for p in pairs if ("parent", p) in digest and ("change", p) in digest]
        same = sum(digest["parent", p] == digest["change", p] for p in both)
        row["outputs_identical_in_pairs"] = f"{same}/{len(both)}"
        out[wl] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--change", required=True, help="one line saying what the change does")
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = spec["command"]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    parent = _git("rev-parse", "--short=7", "HEAD")

    with tempfile.TemporaryDirectory(prefix=f"bench-{parent}-") as tmp:
        sides = {"parent": Path(tmp), "change": ROOT}
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for root in sides.values():
            _drop_bytecode(root)
        source_lines = {side: _source_lines(root) for side, root in sides.items()}

        runs = []
        for pair in range(PAIRS):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for wl in workloads:
                for side in order:
                    result = _bench(sides[side], command, wl, seed, seconds, 0)
                    digest = _outputs_digest(sides[side] / ".perfbench_work" / wl)
                    runs.append({"set": "parent-vs-change", "side": side, "workload": wl,
                                 "seed": seed, "seconds": seconds, "pair": pair,
                                 "result": result, "outputs_sha256": digest})
                    print(f"pair {pair} {wl} {side}: {json.dumps(result.get('metrics', result))}",
                          file=sys.stderr, flush=True)
        traced = [{"side": side, "workload": wl, "seed": TRACE_SEED,
                   "seconds": TRACE_SECONDS, "trace": 1,
                   "result": _bench(sides[side], command, wl, TRACE_SEED, TRACE_SECONDS, 1)}
                  for wl in workloads for side in ("parent", "change")]
        scale = []
        for side in ("parent", "change"):
            proc = _run(sides[side], ["python3", "perfbench/scale.py", "--n", "100"])
            scale.append({"side": side, "command": "python3 perfbench/scale.py --n 100",
                          "stdout": proc.stdout.strip().splitlines(),
                          "returncode": proc.returncode})

    cmd = " ".join(spec["command"])
    doc = {
        "parent": parent,
        "change": args.change,
        "host": f"{os.cpu_count()}-core {platform.machine()} host, {platform.system()}, "
                f"Python {platform.python_version()}, numpy {np.__version__}",
        "command": f"{cmd} --workload <workload> --seed <seed> --seconds <seconds> "
                   f"--trace <0|1>",
        "method": (f"tools/bench_pairs.py: the parent side runs from a git archive of {parent}, "
                   f"the change side from the working tree, both with "
                   f"PYTHONDONTWRITEBYTECODE=1 and no __pycache__ under src/ or perfbench/; "
                   f"pair k runs both sides with seed {args.first_seed} + k "
                   f"({PAIRS} pairs), the parent first in even pairs and the change "
                   f"first in odd pairs, the workloads taking turns within each pair. "
                   f"'outputs_sha256' hashes the sorted names and bytes of the files each "
                   f"run left in .perfbench_work/<workload>/, result.json and trace.json "
                   f"excepted. "
                   f"Quartiles are numpy linear percentiles over each side's runs. 'traced' "
                   f"holds one --trace 1 run per side and workload at seed {TRACE_SEED}, "
                   f"{TRACE_SECONDS:g} s. 'scale' holds one run per side of "
                   f"perfbench/scale.py --n 100, after the other runs. 'source_lines' "
                   f"counts the lines of src/ccnet/*.py on each side."),
        "source_lines": source_lines,
        "summary": {"parent-vs-change": _summary(runs, workloads, metrics)},
        "runs": runs,
        "traced": traced,
        "scale": scale,
    }
    out = ROOT / f"BENCH_{parent}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
