"""Benchmark for the dimwit package.

Usage, from the repository root:

    python3 perfbench/run.py --workload witness-E --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all               # every workload, both modes
    python3 perfbench/run.py --workload all --quick       # tiny sizes; the self-test

Workloads, metrics and their bounds are declared in BENCHMARK.json at the
repository root; perfbench/README.md explains the design.  With ``--trace 0``
the run repeats passes over the seeded inputs for ``--seconds`` (at least
two whole passes) and reports the end-to-end metrics.  With ``--trace 1`` it
runs every input untraced and then traced, single-process, for
``--seconds``, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Gated times are in calibrated seconds: each measured interval is divided by
the time of a fixed calibration kernel run just before and after it and
multiplied by the kernel's nominal time (see ``calibration.py``), which
cancels the shared host's changing speed.  The wall-clock figures are in the
report line.
"""
from __future__ import annotations

import os

# Cap BLAS threads before numpy loads: with at most two pool workers the
# thread total stays within the two cores the workloads are sized for.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
#: At least two passes, so every run can compare repeats of each input.
MIN_PASSES = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# The program under test is the source tree of this checkout, never an
# installed copy.
sys.path.insert(0, str(ROOT / "src"))
try:
    import dimwit
except ImportError as exc:
    sys.exit(f"perfbench: cannot import dimwit from {ROOT / 'src'}: {exc}")
if not Path(dimwit.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: dimwit resolved to {dimwit.__file__}, outside this checkout")

import numpy as np  # noqa: E402
from dimwit import linalg  # noqa: E402
from calibration import NOMINAL_S, Stopwatch  # noqa: E402
from spans import KEEP_RESULTS, Recorder, largest_self, layer_metrics, quantile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "have_numba": getattr(linalg, "HAVE_NUMBA", None),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, quick: bool) -> list[Stopwatch]:
    """Timings of fresh interpreters that import dimwit, build the
    workload's inputs and make its first warm call."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"] + (["--quick"] if quick else [])
    watches = []
    for _ in range(SETUP_PROBES):
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would quantize the measurement.
        with Stopwatch() as watch:
            code = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL).wait()
        watches.append(watch)
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
    return watches


def untraced():
    """Recorder that only keeps see-saw results (two spans per CLI call)."""
    return Recorder(KEEP_RESULTS)


def run_pass(workload, **opts):
    """One untraced call per input, in order."""
    return [workload.call(spec, untraced(), **opts) for spec in workload.specs()]


def end_to_end(workload, seconds: float, setup: list[Stopwatch]):
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run_pass(workload))
    calls = [c for p in passes for c in p]
    failures = [f for c in calls for f in c.failures]
    failed = sum(1 for c in calls if c.failures)
    # Repeats of one input must do the same work: same iterations and, for
    # witness-E, byte-identical payloads (manifest removed).
    attempted = len(calls) + 1
    if any([(c.units, c.payload) for c in p] != [(c.units, c.payload) for c in passes[0]]
           for p in passes[1:]):
        failures.append("repeats of one seed differ in work or payload")
        failed += 1
    # Each input is timed by the median over its repeats of its calibrated
    # time; a pass of those medians is the work of one pass.
    units = [c.units for c in passes[0]]
    calibrated = [NOMINAL_S * statistics.median(p[i].ratio for p in passes)
                  for i in range(len(units))]
    wall = [statistics.median(p[i].seconds for p in passes) for i in range(len(units))]
    per_unit_ms = [1e3 * t / u for t, u in zip(calibrated, units) if u]
    busy = sum(c.seconds for c in calls)
    restarts = sum(c.restarts for c in calls)
    hits = sum(c.hits for c in calls)
    call_ms = [1e3 * c.seconds for c in calls]
    metrics = {
        "setup_s": NOMINAL_S * statistics.median(w.ratio for w in setup),
        "work_per_s": sum(units) / sum(calibrated),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = dict(metrics)
    report.update({
        "wall_setup_s": statistics.median(w.seconds for w in setup),
        "wall_work_per_s": sum(units) / sum(wall),
        "work_ms_p50": quantile(per_unit_ms, 0.5),
        "work_ms_p90": quantile(per_unit_ms, 0.9),
        "wall_s": statistics.median(sum(c.seconds for c in p) for p in passes),
        "call_ms_p50": quantile(call_ms, 0.5),
        "call_ms_p90": quantile(call_ms, 0.9),
        "call_count": len(calls),
        "pass_count": len(passes),
        "failed_frac": failed / attempted,
    })
    if restarts:
        report.update({
            "restarts_per_s": restarts / busy,
            "hit_rate": hits / restarts,
            "time_to_target_s": busy / hits if hits else float("inf"),
            "iterations": sum(c.units for c in calls),
            "restarts": restarts,
        })
    else:
        report["bounds_per_s"] = len(calls) / busy
    return metrics, report, attempted, failed, failures


def per_layer(workload, seconds: float):
    """Passes in which every input runs untraced and then traced, both
    single-process, until ``seconds`` have passed; the adjacent pairs make
    the tracing overhead comparable despite the host's speed swings."""
    recorder = Recorder()
    calls, first_traced = [], []
    traced_s = untraced_s = 0.0
    passes = 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        for spec in workload.specs():
            plain = workload.call(spec, untraced(), jobs=1)
            traced = workload.call(spec, recorder, jobs=1)
            untraced_s += plain.seconds
            traced_s += traced.seconds
            calls += [plain, traced]
            if not passes:
                first_traced.append(traced)
        passes += 1
    failures = [f for c in calls for f in c.failures]
    failed = sum(1 for c in calls if c.failures)
    attempted = len(calls)
    if workload.name == "witness-E":
        # Serial (traced, jobs=1) and parallel (jobs=2) runs must agree exactly.
        parallel = run_pass(workload, jobs=2)
        calls += parallel
        failures += [f for c in parallel for f in c.failures]
        failed += sum(1 for c in parallel if c.failures)
        attempted += len(parallel) + 1
        if [c.payload for c in parallel] != [c.payload for c in first_traced]:
            failures.append("jobs=2 payloads differ from the traced jobs=1 payloads")
            failed += 1
    metrics = layer_metrics(recorder, passes, traced_s / untraced_s - 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}.jsonl"
    with trace_file.open("w", encoding="utf-8") as fh:
        for record in recorder.to_records():
            fh.write(json.dumps(record) + "\n")
    report = dict(metrics)
    report["traced_pass_s"] = traced_s / passes
    report["untraced_pass_s"] = untraced_s / passes
    report["pass_count"] = passes
    report["largest_self_ms"] = [(name, ms / passes) for name, ms in largest_self(recorder)[:5]]
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, report, attempted, failed, failures


def run_one(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.quick, workdir)
        if args.setup_probe:
            workload.warm()
            return 0
        setup = [] if args.trace else measure_setup(args.workload, args.seed, args.quick)
        workload.warm()
        if args.trace:
            metrics, report, attempted, failed, failures = per_layer(workload, args.seconds)
        else:
            metrics, report, attempted, failed, failures = end_to_end(workload, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures:
        print(f"FAILED {line}")
    report = {name: {"value": value, "unit": UNITS.get(name) or REPORT_UNITS[name]}
              for name, value in report.items()}
    for name, entry in report.items():
        print(f"{name:44s} {entry['value']!r:>28s} {entry['unit']}")
    print(json.dumps({
        "report": {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "quick": args.quick, "unit_of_work": workload.unit,
                   "environment": environment(), "metrics": report},
    }))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


#: Units of the report-only metrics (BENCHMARK.json holds the gated ones).
REPORT_UNITS = {
    "wall_setup_s": "s", "wall_work_per_s": "1/s", "work_ms_p50": "ms", "work_ms_p90": "ms", "wall_s": "s", "call_ms_p50": "ms", "call_ms_p90": "ms", "call_count": "count",
    "pass_count": "count", "failed_frac": "frac", "restarts_per_s": "1/s", "hit_rate": "frac",
    "time_to_target_s": "s", "iterations": "count", "restarts": "count", "bounds_per_s": "1/s",
    "traced_pass_s": "s", "untraced_pass_s": "s", "largest_self_ms": "ms", "trace_file": "path",
}

#: Report metrics every workload must print in a ``--trace 0`` run, beside
#: the gated ones; the see-saw workloads add restart metrics, the classical
#: one a bound rate.
REPORTED = ("wall_setup_s", "wall_work_per_s", "work_ms_p50", "wall_s", "call_ms_p50", "call_ms_p90", "call_count", "failed_frac")
REPORTED_BY_KIND = {
    "see-saw iteration": ("restarts_per_s", "hit_rate", "time_to_target_s"),
    "exact bound": ("bounds_per_s",),
}


def run_all(args) -> int:
    """Every workload in its own process, trace 0 then trace 1; checks that
    each declared metric is emitted with its declared unit."""
    expected = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    ok = True
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                argv.append("--quick")
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            try:
                *_, report_line, result_line = proc.stdout.strip().splitlines()
                result = json.loads(result_line)
                report = json.loads(report_line)["report"]
            except (ValueError, KeyError):
                print(f"SELFTEST {workload} trace={trace}: no result line (exit {proc.returncode})")
                ok = False
                continue
            got = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in expected[trace]}
            if trace == 0:
                extra = REPORTED + REPORTED_BY_KIND[report["unit_of_work"]]
                wanted.update({name: REPORT_UNITS[name] for name in extra})
            for name, unit in wanted.items():
                source = got if name in got else report["metrics"]
                if source.get(name, {}).get("unit") != unit:
                    print(f"SELFTEST {workload} trace={trace}: {name} missing or wrong unit")
                    ok = False
            if set(got) != {m["name"] for m in expected[trace]}:
                print(f"SELFTEST {workload} trace={trace}: undeclared metrics {sorted(set(got) - {m['name'] for m in expected[trace]})}")
                ok = False
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"SELFTEST {workload} trace={trace}: exit {proc.returncode}, failed {result['failed']}")
                ok = False
    print("SELFTEST", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds, or 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else SPEC["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
