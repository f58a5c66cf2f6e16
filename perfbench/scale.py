"""Time one ``ccnet analyze`` on a trade-like slice with a larger LSCC.

    python3 perfbench/scale.py --n 100 [--n 200 ...]

The slice is the 1970 slice of the trade-series generator (seed 0) with
``n`` core nodes, run with the trade-series settings (drt, sf, B = 10^4).
At the paper's scale this takes minutes, so it is a one-off, not a workload.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, action="append", required=True)
    args = parser.parse_args()
    os.chdir(ROOT)
    sys.path.insert(0, "src")
    import inputs
    import ccnet.cli

    work = Path(".perfbench_work") / "scale"
    work.mkdir(parents=True, exist_ok=True)
    for n in args.n:
        s = inputs.trade_series(0, core=n)[0][0]
        edges = work / f"edges-{n}.csv"
        inputs.write_edges(str(edges), s)
        t0 = time.perf_counter()
        status = ccnet.cli.main(["analyze", "--edges", str(edges),
                                 "--threshold", repr(s.threshold), "--scheme", "drt",
                                 "--measures", "sf", "--replicates", "10000",
                                 "--out", str(work / f"report-{n}.json")])
        print(f"N={n}: analyze {time.perf_counter() - t0:.1f} s, exit status {status}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
