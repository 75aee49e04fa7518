"""quiverext benchmark: time to a verdict, end to end, on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory.  One process, one job at a time (a closed loop with a single
client), no threads.

--trace 0 repeats set-up and the job until S seconds have passed and
reports the end-to-end metrics: job time (`solve_s`, from ready engines to
result, checks excluded), set-up time (`setup_s`: parse, normal-form
engine, opposite engine and corner where the workload uses them) and this
process's peak RSS.  A shared VM runs the same code at speeds up to 1.8x
apart that switch every few seconds, so each job's wall time, and the
set-ups before it, are rescaled to a reference speed by a fixed probe timed
before and after the job and every 0.3 s during it (see speed.py), with the
probes' own time left out.  Both times are the median of the
run's rescaled samples; the fastest, the count and the raw wall-time median
are printed beside them.

--trace 1 first runs the untraced benchmark in a child process, then
wraps quiverext's entry points (see tracer.py), runs set-up and one job
under the tracer and reports the per-layer metrics of layers.py.  Counts
repeat exactly at a fixed seed.

Every output is checked against known mathematics outside the timed
interval.  Human-readable lines come first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit status is
nonzero when any check fails.  Records and traces go to `.bench_out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up is short next to a job, so it is timed several times per job, spread
# over the run; the job uses the last set-up's engines.
SETUPS_PER_JOB = 3
# Wall-time interval between speed probes while timing (speed.py).
PROBE_INTERVAL_S = 0.3
CHILD_TIMEOUT_S = 120


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quiverext").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(seed, workload, inp):
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "workload": workload.name,
        "field": workload.field,
        "input_size": workload.input_size(inp),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _make_workloads(out_dir):
    import workloads
    return {w.name: w for w in (workloads.Exterior3(), workloads.PolyCorner(),
                                workloads.Nakayama24(),
                                workloads.CliFixtures(str(ROOT), out_dir))}


def _failures(wl, inp, ops):
    """Per-operation failure lists: exceptions and failed checks."""
    out = []
    try:
        checks = wl.check_ops(inp, [o for _, o in ops])
    except Exception as exc:    # a check that crashes fails every operation
        return [["check raised %r" % exc]] * len(ops)
    for (_, result), bad in zip(ops, checks):
        if isinstance(result, Exception):
            bad = ["raised %r" % result] + bad
        out.append(bad)
    return out


def _final_failures(wl, inp, state, seed):
    try:
        return wl.final_check(inp, state, seed)
    except Exception as exc:
        return ["final check raised %r" % exc]


def _tally(fails, run_level):
    """(attempted, failed, messages).  Run-level failures (the final check,
    tracer coverage) are charged to the last operation."""
    fails = fails[:-1] + [fails[-1] + run_level]
    return (len(fails), sum(1 for bad in fails if bad),
            [msg for bad in fails for msg in bad])


def _timing(samples, wall):
    return {"value": statistics.median(samples), "unit": "s", "n": len(samples),
            "fastest": min(samples), "wall_median": statistics.median(wall)}


def timed_run(wl, inp, seed, seconds):
    """Untraced: set-ups and a job, repeated until `seconds` have passed.
    Times are taken on a clock that stops while a speed probe runs, and
    rescaled by the probes taken around and during each job and its
    set-ups."""
    walls = {"solve_s": [], "setup_s": []}
    scaled = {"solve_s": [], "setup_s": []}
    op_samples, fails = [], []
    start = time.perf_counter()
    with speed.Sampler(PROBE_INTERVAL_S) as sampler:
        clock = sampler.clock
        sampler.probe()                 # warm-up
        sampler.take()
        before = sampler.probe()
        while True:
            setups = []
            for _ in range(SETUPS_PER_JOB):
                t0 = clock()
                state = wl.setup(inp)
                setups.append(clock() - t0)
            ops = wl.run_job(state, inp, seed, clock)
            job = sum(dt for dt, _ in ops)
            after = sampler.probe()
            k = speed.scale([before] + sampler.take())
            before = after
            walls["solve_s"].append(job)
            scaled["solve_s"].append(job * k)
            walls["setup_s"].extend(setups)
            scaled["setup_s"].extend(dt * k for dt in setups)
            op_samples.extend(dt for dt, _ in ops)
            fails.extend(_failures(wl, inp, ops))
            if time.perf_counter() - start >= seconds:
                break
    attempted, failed, messages = _tally(fails, _final_failures(wl, inp, state, seed))
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "samples": {"solve_s": scaled["solve_s"], "setup_s": scaled["setup_s"],
                    "solve_wall_s": walls["solve_s"],
                    "setup_wall_s": walls["setup_s"], "op_wall_s": op_samples},
        "metrics": {
            "solve_s": _timing(scaled["solve_s"], walls["solve_s"]),
            "setup_s": _timing(scaled["setup_s"], walls["setup_s"]),
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        },
    }


def _untraced_child(args):
    """The untraced run in its own process: its solve_s and correctness."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, ["untraced child exited %d: %s"
                      % (proc.returncode, proc.stderr.strip()[-400:])]
    last = json.loads(lines[-1])
    return last["metrics"]["solve_s"]["value"], []


def traced_run(wl, inp, args, out_dir):
    import layers
    import tracer as tracing
    untraced_solve, child_fails = _untraced_child(args)
    tr = tracing.Tracer()
    missing = tr.install()
    unpatched = tr.unpatched_bindings()
    clock = time.perf_counter
    before = [speed.probe_s() for _ in range(3)]
    try:
        with tr.span("bench.setup"):
            state = wl.setup(inp)
        with tr.span("bench.job"):
            ops = wl.run_job(state, inp, args.seed, clock)
    finally:
        tr.uninstall()
    after = [speed.probe_s() for _ in range(3)]
    traced_solve = sum(dt for dt, _ in ops) * speed.scale(before + after)
    # coverage self-check: every target found and rebound everywhere, and
    # every span this workload must exercise recorded at least once
    summary = tr.summary()
    absent = [s for s in layers.EXPECTED_SPANS[wl.name]
              if summary.get(s, {}).get("calls", 0) == 0]
    coverage = ["tracer target not found: %s" % m for m in missing]
    coverage += ["binding left unwrapped: %s" % u for u in unpatched]
    coverage += ["expected span missing: %s" % a for a in absent]
    attempted, failed, messages = _tally(
        _failures(wl, inp, ops),
        _final_failures(wl, inp, state, args.seed) + coverage + child_fails)
    extra = {
        "trace.overhead_ratio": (traced_solve / untraced_solve
                                 if untraced_solve else 0.0),
        "mem.traced_peak_mb": _peak_rss_mb(),
    }
    metrics = layers.per_layer_values(tr, extra)
    trace_path = Path(out_dir) / ("trace-%s-seed%d.jsonl" % (wl.name, args.seed))
    tr.write(trace_path)
    job = summary.get("bench.job", {}).get("s", 0.0)
    shares = {name: rec["s"] / job for name, rec in tr.summary("bench.job").items()
              if job and rec["calls"]}
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "metrics": metrics,
        "traced_job_s": traced_solve,
        "untraced_solve_s": untraced_solve,
        "job_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])[:8]),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(tr.span_net),
    }


def _check_catalogue():
    """BENCHMARK.json and layers.py must name the same metrics."""
    import layers
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    per = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if e2e != layers.END_TO_END or per != [m[:3] for m in layers.PER_LAYER]:
        raise SystemExit("error: BENCHMARK.json and bench/layers.py disagree")


def _print_summary(wl, res, trace):
    print("workload %s: attempted %d, failed %d, fail_ratio %.4f (base %d operations)"
          % (wl.name, res["attempted"], res["failed"],
             res["failed"] / res["attempted"], res["attempted"]))
    for msg in res["messages"][:20]:
        print("  FAIL: %s" % msg)
    if trace:
        print("traced job %.4f s, untraced solve_s %s, %d spans written to %s"
              % (res["traced_job_s"], res["untraced_solve_s"], res["spans"],
                 res["trace_file"]))
        print("inclusive share of the traced job: " + ", ".join(
            "%s %.0f%%" % (k, 100 * v) for k, v in res["job_share"].items()))
        for name, m in res["metrics"].items():
            print("%s = %s %s" % (name, m["value"], m["unit"]))
        return
    for name, m in res["metrics"].items():
        if "n" in m:
            print("%s = %.6f %s (median of %d; fastest %.6f; wall-time median %.6f)"
                  % (name, m["value"], m["unit"], m["n"], m["fastest"],
                     m["wall_median"]))
        else:
            print("%s = %.3f %s" % (name, m["value"], m["unit"]))
    if wl.name == "cli_fixtures":
        ops = sorted(res["samples"]["op_wall_s"])
        p90 = statistics.quantiles(ops, n=10, method="inclusive")[8]
        print("cli_p50_ms = %.3f ms (median of %d calls)"
              % (1000 * statistics.median(ops), len(ops)))
        print("cli_p90_ms = %.3f ms (%d of %d calls beyond it)"
              % (1000 * p90, sum(1 for x in ops if x > p90), len(ops)))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "quiverext" / "__init__.py").is_file():
        sys.stderr.write("error: no quiverext sources at %s\n" % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    _check_catalogue()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    seed = args.seed = args.seed % 2 ** 64
    with tempfile.TemporaryDirectory(prefix="cli-", dir=str(out_dir)) as tmp:
        table = _make_workloads(tmp)
        if args.workload not in table:
            sys.stderr.write("error: unknown workload %r (choose from %s)\n"
                             % (args.workload, ", ".join(table)))
            return 2
        wl = table[args.workload]
        inp = wl.make_input(seed)
        env = _environment(seed, wl, inp)
        if args.trace:
            res = traced_run(wl, inp, args, out_dir)
        else:
            res = timed_run(wl, inp, seed, args.seconds)
    env["loadavg_end"] = list(os.getloadavg())
    record = dict(res, environment=env)
    name = "%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace)
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    _print_summary(wl, res, args.trace)
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in res["metrics"].items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
