#!/usr/bin/env python3
"""End-to-end benchmark of the solve, batch and serving paths.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick]

Each workload runs in fresh interpreters, each pinned to one CPU and
with BLAS pinned to one thread: one measuring process, then ``PROBES``
more that only set up, so ``setup_s`` is a median over several
interpreters.  The measuring process runs the first (cold) operation,
then warm operations for the given seconds.  Times are scaled to the
reference host's speed with the kernel of ``speed.py``.  Every metric
is printed by name with its unit and the run is written to
``out/results.json`` next to this file (a traced run also writes
``out/<workload>.trace.json``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace`` its per-layer ones.
The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: extra fresh interpreters that only set up
PROBES = 4
#: measured seconds of a ``--quick`` run
QUICK_SECONDS = 0.5
#: wall-clock budget of one workload, all of its processes included
BUDGET_SECONDS = 170.0
#: the traced run's unattributed share must stay below this on the
#: workloads where one thread does all the work
MAX_UNATTRIBUTED = 0.05
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload to run (repeatable; default: all)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default: run_seconds of "
        f"BENCHMARK.json, or {QUICK_SECONDS} with --quick)",
    )
    p.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="tiny inputs and a short run, for tests of the benchmark",
    )
    p.add_argument(
        "--role", choices=("measure", "probe"), help=argparse.SUPPRESS
    )
    return p.parse_args(argv)


# -- child processes ------------------------------------------------------


def child(args: argparse.Namespace) -> int:
    """One fresh interpreter: set up (timed from before ``import
    repro``) and run the reference kernel; when measuring, also run the
    first (cold) operation and then the warm ones.  Prints one JSON
    object."""
    # the serving threads then share one CPU, whose speed the kernel
    # measures; on two CPUs their hand-offs depend on the other's load
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    name = args.workload[0]
    w = workloads.WORKLOADS[name]
    inputs = w.build(args.seed, args.quick)
    setup = time.perf_counter() - t0
    import speed

    out = {
        "setup_s": setup * speed.factor(),
        "setup_wall_s": setup,
    }
    if args.role == "measure":
        import layers
        import numpy
        import scipy
        from repro.telemetry import validate_chrome_trace

        rss_built = _reset_peak_rss_mb()
        cold = w.op(inputs, 0)
        m = workloads.measure(name, inputs, args.seconds, bool(args.trace))
        out["peak_rss_mb"] = _peak_rss_mb() - rss_built
        m["cold_ms"] = 1e3 * cold.seconds
        spans = m.pop("spans", None)
        if spans is not None:
            doc = layers.chrome_trace(spans)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{name}.trace.json"
            path.write_text(json.dumps(doc))
            m["trace_file"] = str(path.relative_to(ROOT))
            m["trace_problems"] = validate_chrome_trace(doc)[:5]
            m["leftover_wrappers"] = layers.leftover_wrappers()
        m["attempted"] += cold.checked
        m["failed"] += cold.failed
        out.update(m)
        out["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    print(json.dumps(out))
    return 0


def _reset_peak_rss_mb() -> float:
    """Lower this process's peak-RSS mark to its current RSS (Linux
    ``clear_refs``) and return that RSS in MB.  Heap that set-up freed
    is first handed back (glibc ``malloc_trim``), so that operations
    reusing it count it in their peak."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _spawn(role: str, name: str, args, seconds: float, deadline: float):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        cmd.append("--quick")
    # run() kills the child and waits for it when the budget runs out
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **PINNED},
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{role} process of {name!r} exited with {proc.returncode}"
        )
    return json.loads(lines[-1])


# -- one workload -----------------------------------------------------------


def run_workload(name: str, args, seconds: float, spec: dict) -> dict:
    deadline = time.monotonic() + BUDGET_SECONDS
    main = _spawn("measure", name, args, seconds, deadline)
    probes = []
    if not args.trace:
        for _ in range(1 if args.quick else PROBES):
            probes.append(_spawn("probe", name, args, seconds, deadline))
    runs = [main] + probes
    checks = {"answers": main["failed"] == 0}
    if args.trace:
        declared = spec["per_layer"]
        values = {**main["layers"], "op.cold_ms": main["cold_ms"]}
        checks["trace_valid"] = not main["trace_problems"]
        checks["wrappers_restored"] = not main["leftover_wrappers"]
        if not name.startswith("serve"):
            checks["attributed"] = (
                values["unattributed_frac"] <= MAX_UNATTRIBUTED
            )
    else:
        declared = spec["end_to_end"]
        values = {
            "op_ms": main["op_ms"],
            "ops_per_s": main["ops_per_s"],
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"{name}: emitted metrics {sorted(values)} differ from the "
            f"declared {sorted(names)}"
        )
    return {
        "correct": all(checks.values()),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
        "checks": checks,
        "samples": main["samples"],
        "tail_ms": main["tail_ms"],
        "tail_percentile": main["tail_percentile"],
        "cold_ms": main["cold_ms"],
        "info": main["info"],
        "versions": main["versions"],
        "setups": [
            {k: r[k] for k in ("setup_s", "setup_wall_s")} for r in runs
        ],
        **{
            k: main[k]
            for k in ("ops_ms", "trace_file", "trace_problems")
            if k in main
        },
    }


def _print(name: str, res: dict) -> None:
    for metric, m in res["metrics"].items():
        note = f"median of {res['samples']}" if metric == "op_ms" else ""
        print(
            f"{name:14s} {metric:30s} {m['value']:14.6g} {m['unit']:8s} "
            f"{note}"
        )
    print(
        f"{name:14s} {'tail_ms (not gated)':30s} {res['tail_ms']:14.6g} "
        f"{'ms':8s} p{res['tail_percentile']} of {res['samples']}"
    )
    for key, value in res["info"].items():
        print(f"{name:14s} {'info.' + key:30s} {value:14.6g}")
    bad = [k for k, ok in res["checks"].items() if not ok]
    status = "ok" if res["correct"] else f"FAILED {bad or ''}"
    print(
        f"{name:14s} checks: {status} "
        f"({res['failed']} of {res['attempted']} answers failed)"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        return child(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, seconds, spec)
            _print(name, results[name])
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    doc = {
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "workloads": results,
    }
    (OUT / "results.json").write_text(json.dumps(doc, indent=1) + "\n")
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {
            f"{name}.{k}": v
            for name, res in results.items()
            for k, v in res["metrics"].items()
        }
    correct = all(r["correct"] for r in results.values())
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
