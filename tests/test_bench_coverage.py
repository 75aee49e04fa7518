"""The benchmark's traced run, in miniature: for each workload that
bench/run.py builds, install bench/tracer.py's Tracer as `traced_run` does,
run set-up and one job, and require what a traced run requires: every
tracer target found and rebound, every span that bench/layers.py's
EXPECTED_SPANS lists for the workload recorded, and the workload's own
checks passing.  The workloads and EXPECTED_SPANS are read at run time, so
the test follows the benchmark's own lists."""

import importlib
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 3


def traced_problems(layers, run, tracer, wl):
    """What a traced run of one set-up and one job would report as failed."""
    inp = wl.make_input(SEED)
    tr = tracer.Tracer()
    problems = ["tracer target not found: %s" % m for m in tr.install()]
    try:
        problems += ["binding left unwrapped: %s" % u for u in tr.unpatched_bindings()]
        state = wl.setup(inp)
        ops = wl.run_job(state, inp, SEED, time.perf_counter)
    finally:
        tr.uninstall()
    summary = tr.summary()
    problems += ["expected span missing: %s" % s for s in layers.EXPECTED_SPANS[wl.name]
                 if summary.get(s, {}).get("calls", 0) == 0]
    problems += [msg for bad in run._failures(wl, inp, ops) for msg in bad]
    return problems + run._final_failures(wl, inp, state, SEED)


def test_traced_jobs_cover_expected_spans(monkeypatch, tmp_path):
    # run.py imports its sibling modules by their bare names, as a script
    monkeypatch.syspath_prepend(str(BENCH))
    layers, run, tracer = [importlib.import_module(m) for m in ("layers", "run", "tracer")]
    workloads = run._make_workloads(str(tmp_path))
    assert sorted(workloads) == sorted(layers.EXPECTED_SPANS)
    problems = {name: traced_problems(layers, run, tracer, wl)
                for name, wl in workloads.items()}
    assert problems == {name: [] for name in workloads}
