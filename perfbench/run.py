"""fockfield benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload {cli_scenarios,fock_states,wick_strings} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.
The seed makes the inputs; the program receives only those inputs.  One
untimed warm-up pass runs first, then whole passes over the workload's
operation list repeat until ``--seconds`` have elapsed.  Every operation's
output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes in which every public function of the layers
fock, wick, field, dynamics, qinfo, artifacts and cli is wrapped in a
span (see spans.py), and prints the per-layer metrics.  The last line of
stdout is the JSON result; the line before it echoes the seed, the input
sizes and the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cli_scenarios", "fock_states", "wick_strings")  # module names under perfbench/
SETUP_REPEATS = 9


def measure_setup():
    """Median wall time for a fresh interpreter to import fockfield and fockfield.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("FOCKFIELD_OUT_DIR", None)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
        # which would quantize the measurement
        child = subprocess.Popen([sys.executable, "-c", "import fockfield, fockfield.cli"], env=env, cwd=ROOT)
        code = child.wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"importing fockfield in a fresh interpreter exited {code}")
    return statistics.median(times)


def run_pass(ops, tracer=None):
    """One pass over the operation list.

    Returns (wall seconds, cpu seconds, per-op wall seconds, failures).
    Only the calls into the program are timed; checks run between them.
    """
    durations = []
    wall = cpu = 0.0
    failed = 0
    for _label, run, check in ops:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            value = run()
            raised = False
        except Exception:  # a raising operation is a failed operation
            value, raised = None, True
        t1 = time.perf_counter()
        c1 = time.process_time()
        durations.append(t1 - t0)
        wall += t1 - t0
        cpu += c1 - c0
        if tracer is not None:
            tracer.paused = True
        try:
            ok = not raised and bool(check(value))
        except Exception:
            ok = False
        finally:
            if tracer is not None:
                tracer.paused = False
        failed += not ok
        # drop the output now, so freeing it is not timed as part of the next operation
        value = None
    return wall, cpu, durations, failed


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fockfield", "__init__.py")):
        print(f"error: no fockfield package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    os.environ.pop("FOCKFIELD_OUT_DIR", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fockfield  # noqa: F401
    import fockfield.cli  # noqa: F401

    import envinfo
    import spans

    setup_s = None if args.trace else measure_setup()
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = importlib.import_module(args.workload).Workload(args.seed, tmp_dir)
        ops = list(workload.ops())
        tracer = spans.Tracer() if args.trace else None

        attempted = failed = 0
        _, _, _, warm_failed = run_pass(ops)  # warm-up: lazy imports, caches
        attempted += len(ops)
        failed += warm_failed

        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            use_trace = tracer is not None and len(traced) < len(plain)
            if use_trace:
                tracer.reset()
                with tracer:
                    wall, cpu, durations, bad = run_pass(ops, tracer)
                traced.append((wall, tracer.layer_summary(), dict(tracer.counters)))
            else:
                wall, cpu, durations, bad = run_pass(ops)
                plain.append((wall, cpu, durations))
            attempted += len(ops)
            failed += bad
            enough = len(plain) >= 2 and (tracer is None or len(traced) >= 2)
            if enough and time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    # per-pass figures, then the median over passes: a burst of load from
    # outside slows whole passes, and the median sets those aside
    run_s = statistics.median(w for w, _, _ in plain)
    p50 = statistics.median(percentile(durs, 0.5) for _, _, durs in plain)
    p90 = statistics.median(percentile(durs, 0.9) for _, _, durs in plain)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": workload.sizes,
        "ops_per_pass": len(ops),
        "passes": len(plain),
        "pass_run_s": [round(w, 4) for w, _, _ in plain],
        "traced_passes": len(traced),
        "op_samples_beyond_p90_per_pass": min(sum(1 for d in durs if d > percentile(durs, 0.9)) for _, _, durs in plain),
        "fail_ratio": failed / attempted,
        "env": envinfo.stamp(ROOT),
    }
    if hasattr(workload, "checker"):
        info["artifacts_identical"] = workload.checker.identical
        info["artifacts_compared"] = workload.checker.artifacts

    if tracer is None:
        metrics = {
            "run_s": metric(run_s, "s"),
            "op_p50_ms": metric(p50 * 1e3, "ms"),
            "op_p90_ms": metric(p90 * 1e3, "ms"),
            "cpu_s": metric(statistics.median(c for _, c, _ in plain), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(setup_s, "s"),
            "ok_ratio": metric(1.0 - failed / attempted, "ratio"),
        }
    else:
        metrics = layer_metrics(traced, run_s, spans.LAYERS)
        # per pass: every pass, warm-up included, compares the same artifacts
        checker = getattr(workload, "checker", None)
        identical = checker.identical / (attempted // len(ops)) if checker else 0
        metrics["artifacts.identical"] = metric(identical, "count")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


COUNTERS = (
    ("fock.components_out", "fock", "fock.components_per_s"),
    ("wick.terms_out", "wick", "wick.terms_per_s"),
    ("field.mode_terms", "field", "field.mode_terms_per_s"),
    ("field.fft_points", None, None),
    ("dynamics.samples", "dynamics", "dynamics.samples_per_s"),
    ("qinfo.rho_entries", None, None),
    ("qinfo.draws", None, None),
    ("artifacts.bytes_written", None, None),
    ("cli.exit_nonzero", None, None),
)


def layer_metrics(traced, untraced_run_s, layers):
    """Medians over the traced passes of each layer's calls, self time, errors and work counts."""
    out = {}
    self_s = {}
    for layer in layers:
        calls = statistics.median(summary[layer][0] for _, summary, _ in traced)
        self_s[layer] = statistics.median(summary[layer][1] for _, summary, _ in traced)
        errors = statistics.median(summary[layer][2] for _, summary, _ in traced)
        out[f"{layer}.calls"] = metric(calls, "count")
        out[f"{layer}.self_s"] = metric(self_s[layer], "s")
        out[f"{layer}.errors"] = metric(errors, "count")
    for name, layer, rate in COUNTERS:
        count = statistics.median(counters.get(name, 0) for _, _, counters in traced)
        out[name] = metric(count, "count")
        if rate is not None:
            out[rate] = metric(count / self_s[layer] if self_s[layer] > 0 else 0.0, "1/s")
    traced_run_s = statistics.median(w for w, _, _ in traced)
    covered = statistics.median(sum(s[1] for s in summary.values()) / wall for wall, summary, _ in traced)
    out["trace.overhead_s"] = metric(traced_run_s - untraced_run_s, "s")
    out["trace.coverage"] = metric(covered, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
