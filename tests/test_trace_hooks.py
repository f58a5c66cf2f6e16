"""The benchmark's span tracer (``perfbench/spans.py``) wraps public ccnet
functions by name and reads some of their arguments by name.  Renaming or
deleting one of them must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import ccnet

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# parameters that the tracer's per-call work counters (``WORK``) read
WORK_PARAMS = {
    "measures.maxflow_measure": {"g"},
    "standardize.standardize": {"measure"},
    "gof.ks_p_value": {"sample", "replicates"},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_bucket_and_restores():
    spans = _load_spans()
    original = ccnet.standardize
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ccnet.standardize is not original
    finally:
        tracer.uninstall()
    assert ccnet.standardize is original


def test_work_counters_find_their_parameters():
    spans = _load_spans()
    assert set(spans.WORK) == set(WORK_PARAMS)
    for qual, params in WORK_PARAMS.items():
        home, name = qual.split(".")
        fn = getattr(importlib.import_module(f"ccnet.{home}"), name)
        assert params <= set(inspect.signature(fn).parameters), qual
