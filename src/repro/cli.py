"""Command-line front end: ``python -m repro <command>``.

Gives downstream users the paper's workflows without writing code:

``python -m repro suite``
    List the 48 test matrices (name, size, nnz, family, analog).
``python -m repro solve fem_b4_s0 --method lu --bound 32``
    Run the block-Jacobi-preconditioned IDR(4) solve on one suite
    matrix (or on a Matrix Market file via ``--mtx path``).
``python -m repro project lu_factor -m 32 -n 40000 --precision single``
    Project a batched kernel's GFLOPS on the P100 model (Figures 4-7).
``python -m repro blocks fem_b4_s0 --bound 16``
    Show the supervariable blocking a matrix induces.
``python -m repro verify --quick``
    Run the differential verification suite (cross-kernel oracles,
    backward-error metrology, adversarial batches, SIMT replay) and
    exit nonzero on any violation.
``python -m repro solve fem_b4_s0 --trace out.trace.json --metrics``
    ``solve`` and ``verify`` accept ``--trace PATH`` (record a
    hierarchical span trace, written as Chrome/Perfetto trace-event
    JSON) and ``--metrics`` (print the metrics-registry snapshot after
    the run).
``python -m repro obs-report blackbox.json [--chain TRACE_ID]``
    Inspect a flight-recorder dump: event counts by kind, the
    triggering alert, and reconstructed per-request causal chains
    (admission -> queue -> coalesced launch via span links ->
    scatter-back -> delivery).
``python -m repro trace-summary out.trace.json --check``
    Fold an exported trace back into the paper's Fig. 9 cost
    decomposition (setup vs apply vs solver) plus, for serving
    traces, the per-tenant stage roll-up; ``--check`` validates
    the trace invariants and exits nonzero on any violation.
``python -m repro telemetry-overhead --threshold 0.02``
    Measure the overhead of the *disabled* telemetry path against the
    bare pre-instrumentation timer; exits nonzero above the threshold.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _cmd_suite(args) -> int:
    from .bench import format_table
    from .sparse.suite import SUITE, load_matrix

    rows = []
    for e in SUITE:
        if args.family and e.family != args.family:
            continue
        A = load_matrix(e.name)
        rows.append([e.id, e.name, e.family, e.analog, A.n_rows, A.nnz])
    print(
        format_table(
            ["ID", "name", "family", "stands in for", "n", "nnz"],
            rows,
            title="repro test suite (48 synthetic SuiteSparse stand-ins)",
        )
    )
    return 0


def _load_problem(args):
    if args.mtx:
        from .sparse.io import read_matrix_market

        return read_matrix_market(args.mtx)
    from .sparse.suite import load_matrix

    return load_matrix(args.matrix)


def _add_telemetry_args(parser) -> None:
    parser.add_argument("--trace", metavar="PATH",
                        help="record a hierarchical span trace of the "
                        "run and write it to PATH as Chrome/Perfetto "
                        "trace-event JSON")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics-registry snapshot "
                        "(JSON) after the run")


def _with_telemetry(args, run) -> int:
    """Run a command body under the ``--trace``/``--metrics`` flags."""
    import json

    from .telemetry import (
        Tracer,
        metrics_snapshot,
        set_tracer,
        write_chrome_trace,
    )

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        set_tracer(tracer)
    try:
        code = run()
    finally:
        if tracer is not None:
            set_tracer(None)
    if tracer is not None:
        doc = write_chrome_trace(tracer, args.trace)
        print(
            f"trace written to {args.trace} "
            f"({len(doc['traceEvents'])} event(s))"
        )
    if args.metrics:
        print(json.dumps(metrics_snapshot(), indent=2))
    return code


def _cmd_solve(args) -> int:
    return _with_telemetry(args, lambda: _run_solve(args))


def _run_solve(args) -> int:
    from .precond import (
        BlockJacobiPreconditioner,
        IdentityPreconditioner,
        ScalarJacobiPreconditioner,
    )
    from .runtime import BatchRuntime
    from .solvers import Watchdog, bicgstab, cg, gmres, idrs

    A = _load_problem(args)
    b = np.ones(A.n_rows)
    if args.method == "none":
        M = IdentityPreconditioner().setup(A)
    elif args.method == "scalar":
        M = ScalarJacobiPreconditioner().setup(A)
    else:
        runtime = BatchRuntime(
            backend=args.backend, resilient=args.resilient
        )
        M = BlockJacobiPreconditioner(
            method=args.method,
            max_block_size=args.bound,
            on_singular=args.on_singular,
            apply_mode=args.apply_mode,
            runtime=runtime,
        ).setup(A)
        print(M.report.summary())
    watchdog = None
    if args.watchdog:
        rebuild = getattr(M, "rebuild", None)
        watchdog = Watchdog(rebuild=rebuild)
    solver = {"idr": lambda: idrs(A, b, s=args.s, M=M, tol=args.tol,
                                  maxiter=args.maxiter,
                                  watchdog=watchdog),
              "bicgstab": lambda: bicgstab(A, b, M=M, tol=args.tol,
                                           maxiter=args.maxiter,
                                           watchdog=watchdog),
              "gmres": lambda: gmres(A, b, M=M, tol=args.tol,
                                     maxiter=args.maxiter,
                                     watchdog=watchdog),
              "cg": lambda: cg(A, b, M=M, tol=args.tol,
                               maxiter=args.maxiter,
                               watchdog=watchdog)}[args.solver]
    r = solver()
    print(r)
    if r.watchdog is not None and (
        r.watchdog["restarts"] or r.watchdog["resyncs"]
    ):
        print(
            f"watchdog: {r.watchdog['audits']} audit(s), "
            f"{r.watchdog['resyncs']} resync(s), "
            f"{r.watchdog['restarts']} restart(s)"
        )
    return 0 if r.converged else 1


def _cmd_project(args) -> int:
    from .gpu import DeviceSpec, project_kernel

    device = DeviceSpec.v100() if args.device == "v100" else DeviceSpec.p100()
    dtype = np.float32 if args.precision == "single" else np.float64
    t = project_kernel(args.kind, args.size, args.batch, device=device,
                       dtype=dtype)
    print(
        f"{args.kind} m={args.size} nb={args.batch} "
        f"({args.precision}, {device.name}): {t.gflops:.1f} GFLOPS, "
        f"{t.seconds * 1e3:.3f} ms, {t.bound}-bound"
    )
    return 0


def _cmd_blocks(args) -> int:
    from .blocking import find_supervariables, supervariable_blocking

    A = _load_problem(args)
    sv = find_supervariables(A)
    sizes = supervariable_blocking(A, args.bound)
    uniq, counts = np.unique(sizes, return_counts=True)
    print(f"matrix: n={A.n_rows}, nnz={A.nnz}")
    print(f"supervariables: {sv.size} (mean size {sv.mean():.2f})")
    print(f"blocks at bound {args.bound}: {sizes.size}")
    for u, c in zip(uniq, counts):
        print(f"  size {int(u):2d}: {int(c)} blocks")
    return 0


def _parse_chaos(value) -> int | None:
    """``--chaos`` / ``--chaos seed=N`` / ``--chaos N`` -> sweep seed."""
    if value is None:
        return None
    if value is True or value == "":
        return 0
    text = str(value)
    if text.startswith("seed="):
        text = text[len("seed="):]
    try:
        return int(text)
    except ValueError:
        raise SystemExit(
            f"invalid --chaos argument {value!r}; expected 'seed=N'"
        )


def _cmd_verify(args) -> int:
    return _with_telemetry(args, lambda: _run_verify(args))


def _run_verify(args) -> int:
    import json

    from .verify import run_verification

    chaos_seed = _parse_chaos(args.chaos)
    report = run_verification(
        quick=args.quick,
        seed=args.seed,
        chaos=chaos_seed is not None,
        chaos_seed=chaos_seed if chaos_seed is not None else 0,
    )
    if args.json:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print(f"report written to {args.json}")
    if args.json != "-":
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_trace_summary(args) -> int:
    from .telemetry import (
        format_trace_summary,
        load_trace,
        validate_chrome_trace,
    )

    doc = load_trace(args.path)
    print(format_trace_summary(doc, args.path))
    if args.check:
        problems = validate_chrome_trace(doc)
        if problems:
            print(f"\ntrace INVALID ({len(problems)} problem(s)):")
            for p in problems:
                print(f"  - {p}")
            return 1
        print("\ntrace OK")
    return 0


def _cmd_obs_report(args) -> int:
    import json

    from .obs import format_flight_report, reconstruct_chain

    with open(args.path) as fh:
        dump = json.load(fh)
    if args.chain:
        chain = reconstruct_chain(dump, args.chain)
        print(json.dumps(chain, indent=2))
        return 0 if chain["complete"] else 1
    print(format_flight_report(dump))
    return 0


def _cmd_telemetry_overhead(args) -> int:
    from .telemetry import measure_disabled_overhead

    result = measure_disabled_overhead(
        repeats=args.repeats,
        nb=args.nb,
        solves=args.solves,
        backend=args.backend,
    )
    print(
        f"disabled-telemetry overhead on {result['backend']} "
        f"(nb={result['nb']}, {result['repeats']} repeats): "
        f"instrumented {result['instrumented_seconds'] * 1e3:.3f} ms, "
        f"bare {result['bare_seconds'] * 1e3:.3f} ms, "
        f"overhead {result['overhead'] * 100:+.2f}%"
    )
    if result["overhead_clamped"] > args.threshold:
        print(
            f"FAIL: overhead exceeds threshold "
            f"{args.threshold * 100:.1f}%"
        )
        return 1
    print(f"OK: within threshold {args.threshold * 100:.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .runtime import available_backends

    p = argparse.ArgumentParser(
        prog="repro",
        description="Variable-size batched LU / block-Jacobi "
        "preconditioning (ICPP 2017 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("suite", help="list the 48 test matrices")
    ps.add_argument("--family", help="filter by family tag")
    ps.set_defaults(fn=_cmd_suite)

    pv = sub.add_parser("solve", help="preconditioned iterative solve")
    pv.add_argument("matrix", nargs="?", default="fem_b4_s0",
                    help="suite matrix name")
    pv.add_argument("--mtx", help="Matrix Market file instead")
    pv.add_argument("--method", default="lu",
                    choices=["lu", "gh", "ght", "gje", "cholesky",
                             "scalar", "none"])
    pv.add_argument("--bound", type=int, default=32)
    pv.add_argument("--apply-mode", default="factor",
                    choices=["factor", "inverse", "auto"],
                    help="preconditioner apply path: native triangular "
                         "solves (factor), explicit-inverse batched GEMV "
                         "(inverse), or per-bin measured choice "
                         "(auto)")
    pv.add_argument("--on-singular", default="raise",
                    choices=["raise", "identity", "scalar", "shift"],
                    help="what to do with singular diagonal blocks "
                    "(default: raise)")
    pv.add_argument("--backend", default="binned",
                    choices=available_backends(),
                    help="repro.runtime backend that runs the batched "
                    "setup/apply (default: binned)")
    pv.add_argument("--solver", default="idr",
                    choices=["idr", "bicgstab", "gmres", "cg"])
    pv.add_argument("-s", type=int, default=4, help="IDR shadow dimension")
    pv.add_argument("--tol", type=float, default=1e-6)
    pv.add_argument("--maxiter", type=int, default=10000)
    pv.add_argument("--resilient", action="store_true",
                    help="run the setup on a resilient runtime: "
                    "spot-check validation, circuit breaker, and "
                    "quarantine of failing bins onto numpy")
    pv.add_argument("--watchdog", action="store_true",
                    help="run the solve under the watchdog "
                    "(true-residual audits, stagnation/divergence "
                    "restarts with preconditioner rebuild)")
    _add_telemetry_args(pv)
    pv.set_defaults(fn=_cmd_solve)

    pp = sub.add_parser("project", help="P100 GFLOPS projection")
    pp.add_argument("kind", choices=[
        "lu_factor", "lu_solve", "gh_factor", "gh_solve",
        "ght_factor", "ght_solve", "cublas_factor", "cublas_solve",
        "inverse_apply", "interleaved_factor",
    ])
    pp.add_argument("-m", "--size", type=int, default=32)
    pp.add_argument("-n", "--batch", type=int, default=40000)
    pp.add_argument("--precision", default="double",
                    choices=["single", "double"])
    pp.add_argument("--device", default="p100", choices=["p100", "v100"])
    pp.set_defaults(fn=_cmd_project)

    pb = sub.add_parser("blocks", help="show supervariable blocking")
    pb.add_argument("matrix", nargs="?", default="fem_b4_s0")
    pb.add_argument("--mtx", help="Matrix Market file instead")
    pb.add_argument("--bound", type=int, default=32)
    pb.set_defaults(fn=_cmd_blocks)

    pf = sub.add_parser(
        "verify",
        help="differential verification suite (exit 1 on violation)",
    )
    pf.add_argument("--quick", action="store_true",
                    help="trimmed sweep for CI entry gates")
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--json", metavar="PATH",
                    help="write the JSON report to PATH ('-' for stdout)")
    pf.add_argument("--chaos", nargs="?", const=True, default=None,
                    metavar="seed=N",
                    help="also run the deterministic chaos sweep "
                    "(fault injection against the resilient runtime); "
                    "exit 1 on any silent-corruption escape")
    _add_telemetry_args(pf)
    pf.set_defaults(fn=_cmd_verify)

    pts = sub.add_parser(
        "trace-summary",
        help="summarize an exported trace (Fig. 9 setup/apply split)",
    )
    pts.add_argument("path",
                     help="Chrome trace-event JSON written by --trace")
    pts.add_argument("--check", action="store_true",
                     help="validate the trace invariants (complete X "
                     "events, monotone timestamps, resolvable parents); "
                     "exit 1 on any problem")
    pts.set_defaults(fn=_cmd_trace_summary)

    por = sub.add_parser(
        "obs-report",
        help="inspect a flight-recorder black box: event counts, the "
        "triggering alert, and per-request causal chains",
    )
    por.add_argument("path", help="black-box JSON written by the "
                     "flight recorder (dump_to / SIGUSR2)")
    por.add_argument("--chain", metavar="TRACE_ID",
                     help="print one request's reconstructed causal "
                     "chain as JSON (exit 1 if the chain is "
                     "incomplete)")
    por.set_defaults(fn=_cmd_obs_report)

    pto = sub.add_parser(
        "telemetry-overhead",
        help="measure the disabled-telemetry overhead (CI gate)",
    )
    pto.add_argument("--threshold", type=float, default=0.02,
                     help="maximum tolerated relative overhead of the "
                     "disabled path (default: 0.02 = 2%%)")
    pto.add_argument("--repeats", type=int, default=9)
    pto.add_argument("--nb", type=int, default=512,
                     help="batch size of the measured workload")
    pto.add_argument("--solves", type=int, default=4,
                     help="batched solves per factorization")
    pto.add_argument("--backend", default="binned",
                     choices=available_backends())
    pto.set_defaults(fn=_cmd_telemetry_overhead)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
