"""Run one ccnet benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload trade-series --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout: ccnet is imported from the
checkout's ``src/``.  Set-up writes the inputs and imports ccnet; each is
timed five times (imports in fresh interpreters) and the medians add up.
Whole rounds then repeat until ``--seconds`` have passed.  With
``--trace 0`` the rounds are untraced and the end-to-end metrics are
printed; with ``--trace 1`` an untraced reference round comes first, the
timed rounds are traced, and the per-layer metrics are printed.  Every
round's outputs must be byte-identical to the first round's, and the last
round's outputs are checked against independent computations.  Work files,
the span trace and the result go to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the pipeline is single-threaded Python over small matrices
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# times ``import ccnet`` in a fresh interpreter that has numpy loaded, as this one has
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); import numpy; "
                "t = time.perf_counter(); import ccnet; print(time.perf_counter() - t)")


def _digest(wl, ops) -> str:
    h = hashlib.sha256()
    for path in wl.outputs():
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    for op in ops:
        h.update(f"{op.name}={op.error}".encode())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0   # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ccnet" / "__init__.py").is_file():
        print(f"perfbench: no ccnet sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS  # numpy only; ccnet is not imported yet

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)   # reports record their input paths, relative to the checkout
    work = Path(".perfbench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed)

    prepare = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        prepare.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    import ccnet
    import_s = time.perf_counter() - t0
    if Path(ccnet.__file__).resolve().parent != (src / "ccnet").resolve():
        print(f"perfbench: imported ccnet from {ccnet.__file__}, not {src}", file=sys.stderr)
        return 2

    attempted = failed = mismatched = 0
    reference = None
    rounds = []
    tracer = None
    if args.trace:
        from spans import Tracer
        ops = wl.run_round()   # untraced reference round for the traced ones
        reference = _digest(wl, ops)
        attempted, failed = len(ops), sum(op.error is not None for op in ops)
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            ops = tracer.round(wl.run_round) if tracer else wl.run_round()
            rounds.append(time.perf_counter() - t0)
            attempted += len(ops)
            failed += sum(op.error is not None for op in ops)
            digest = _digest(wl, ops)
            reference = reference or digest
            mismatched += digest != reference
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()
    # more import samples, from fresh interpreters started after the memory reading
    imports = [import_s] + [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True,
        timeout=120).stdout) for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(prepare) + statistics.median(imports)

    from checks import Checks
    c = Checks()
    c.expect("determinism", mismatched == 0,
             f"{mismatched} of {len(rounds)} rounds differ from the first round's outputs")
    wl.check(c, ops)
    for failure in c.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    for op in ops:
        if op.error is not None:
            print(f"perfbench: operation failed: {op.name}: {op.error}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} timed rounds "
          f"({' '.join(f'{t:.3f}' for t in rounds)} s), {c.ran} checks, "
          f"{len(c.failures)} failed", file=sys.stderr)

    if tracer:
        from spans import metric_units
        tracer.dump(str(work / "trace.json"))
        units = metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(tracer.metrics().items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not c.failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (work / "result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
