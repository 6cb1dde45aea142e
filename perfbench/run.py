"""anchorlab benchmark: timed closed-loop CLI sessions on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in this process calls `anchorlab.cli.main(argv)` for each
subcommand of the workload's session, one after another, and repeats the
session until S seconds have passed (at least twice). Every output is
checked; see `workloads.gates_description`. With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 the sessions alternate
untraced and traced and the last line carries the per-layer metrics from
the traced ones. The line before it is a JSON record of everything else:
machine, samples, per-subcommand medians, error rate, output digests and,
when traced, every layer metric and the tracing overhead.

--size tiny shrinks every workload for the smoke test.
"""

import os

# Fixed before numpy is first imported, here and in the set-up children:
# one BLAS thread is the plain single-threaded baseline, and on a small
# machine it is faster and steadier than the default.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

SETUP_REPS = 5
MIN_SESSIONS = 2
SETUP_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("session_s", "s"),
    ("fit_s", "s"),
    ("path_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics on the last line of a traced run: counts, and the times
# and rates of layers that do work on every workload. A layer time that is
# zero by design on some workload (CSV writes and sampling outside a session
# that simulates, the lasso on ingest-dense, the battery outside
# wide-oracle) is reported only in the detail record.
PER_LAYER = (
    ("datamodel.self_s", "s"),
    ("datamodel.read_csv.s", "s"),
    ("datamodel.read_csv.calls", "count"),
    ("datamodel.read_csv.cells_per_s", "1/s"),
    ("datamodel.center.s", "s"),
    ("datamodel.center.calls", "count"),
    ("numkern.self_s", "s"),
    ("numkern.orthonormal_range.s", "s"),
    ("numkern.orthonormal_range.calls", "count"),
    ("numkern.orthonormal_range.computed_gflop", "GFLOP"),
    ("numkern.qr_per_fit", "ratio"),
    ("numkern.project_columns.s", "s"),
    ("numkern.solve_spd.s", "s"),
    ("numkern.solve_spd.calls", "count"),
    ("numkern.solve_spd.failed", "count"),
    ("estimators.self_s", "s"),
    ("estimators.fit_anchor.calls", "count"),
    ("estimators.fit_iv.calls", "count"),
    ("estimators.gamma_transform.self_s", "s"),
    ("sparse.lasso_coordinate_descent.calls", "count"),
    ("sparse.cd_sweeps", "count"),
    ("sparse.cd_nonconverged", "count"),
    ("modelsel.subset_rows.calls", "count"),
    ("scm.self_s", "s"),
    ("scm.population_anchor.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.fit.self_s", "s"),
    ("cli.path.self_s", "s"),
)

SUBCOMMANDS = ("simulate", "fit", "path", "cv", "rank", "verify")
QR_BASIS = (
    "orthonormal_range calls per outermost fit; expected 3 per finite-gamma "
    "fit_anchor (2 in gamma_transform, 1 in anchor_objective), 2 per fit_iv, "
    "2 per fit_anchor_lasso that runs descent"
)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def run_setup(args, run_dir):
    """SETUP_REPS fresh-interpreter set-ups.

    Returns the (import, build) times, the last set-up's directory and the
    session facts it wrote.
    """
    samples = []
    for rep in range(SETUP_REPS):
        # a fresh directory each time: overwriting a just-written file can
        # stall on some file systems, and a first-time user writes fresh files
        setup_dir = os.path.join(run_dir, f"setup{rep}")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), args.workload,
             str(args.seed), args.size, setup_dir],
            env=child_env(), capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    with open(os.path.join(setup_dir, "facts.json"), encoding="utf-8") as fh:
        return samples, setup_dir, json.load(fh)


def invoke(cli, argv, tracer):
    """One subcommand in process: (exit code or None, seconds, captured output)."""
    sink = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
            code = cli.main(argv)
    except SystemExit as exc:  # same exit status as the interpreter would give
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a crash of the run
        code = None
        sink.write(traceback.format_exc())
    return code, time.perf_counter() - start, sink.getvalue()


def summary(samples):
    """Median, sample count, each high percentile with >= 10 samples beyond
    it, and the samples themselves in run order."""
    out = {"median": statistics.median(samples), "samples": len(samples), "values": samples}
    for pct in (90, 99):
        if len(samples) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


def machine_info():
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": int(BLAS_THREADS),
    }


def layer_metrics(tracer) -> dict:
    """Every per-layer metric of one traced session."""
    stats, counts = tracer.stats, tracer.counts

    def get(name, field):
        return getattr(stats[name], field) if name in stats else 0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for layer in ("cli", *tracing.LAYERS):
        out[f"{layer}.self_s"] = sum(
            st.self_s for name, st in stats.items() if name.startswith(layer + ".")
        )
    for name, fields in (
        ("datamodel.read_csv", ("s", "calls")),
        ("datamodel.write_csv", ("s", "calls")),
        ("datamodel.center", ("s", "calls")),
        ("datamodel.encode_anchors", ("s",)),
        ("numkern.orthonormal_range", ("s", "calls")),
        ("numkern.project_columns", ("s",)),
        ("numkern.solve_spd", ("s", "calls", "failed")),
        ("estimators.fit_anchor", ("self_s", "calls")),
        ("estimators.fit_iv", ("self_s", "calls")),
        ("estimators.gamma_transform", ("self_s",)),
        ("estimators.anchor_objective", ("self_s",)),
        ("sparse.lasso_coordinate_descent", ("s", "calls")),
        ("sparse.lambda_max", ("s",)),
        ("modelsel.cv_gamma", ("self_s",)),
        ("modelsel.subset_rows", ("s", "calls")),
        ("modelsel.conditional_mse_quantiles", ("s",)),
        ("modelsel.replicability_rank", ("self_s",)),
        ("scm.sample", ("s",)),
        ("scm.population_anchor", ("s", "calls")),
        ("scm.worst_case_risk", ("s",)),
        ("scm.projectability_check", ("s",)),
        ("scm.replicability_experiment", ("s",)),
        *((f"batteries.{check}", ("s",)) for check in (
            "check_worst_case_identity", "check_random_shift_bound",
            "check_projectability_equivalence", "check_replicability",
            "check_stability_chain", "check_quantile_identity",
        )),
        *((f"cli.{sub}", ("self_s",)) for sub in SUBCOMMANDS),
    ):
        for field in fields:
            out[f"{name}.{field}"] = get(name, field)
    out["datamodel.read_csv.cells_per_s"] = ratio(
        counts["read_csv.cells"], get("datamodel.read_csv", "s"))
    out["datamodel.write_csv.cells_per_s"] = ratio(
        counts["write_csv.cells"], get("datamodel.write_csv", "s"))
    out["numkern.orthonormal_range.computed_gflop"] = counts["qr_flop"] / 1e9
    out["numkern.qr_per_fit"] = ratio(get("numkern.orthonormal_range", "calls"), counts["fits"])
    out["sparse.cd_sweeps"] = counts["cd_sweeps"]
    out["sparse.cd_updates_per_s"] = ratio(
        counts["cd_updates"], get("sparse.lasso_coordinate_descent", "s"))
    out["sparse.cd_nonconverged"] = counts["cd_nonconverged"]
    out["fits"] = counts["fits"]
    out["qr_calls_expected"] = (
        3 * counts["fit_anchor.finite"]
        + 2 * get("estimators.fit_iv", "calls")
        + 2 * (get("sparse.fit_anchor_lasso", "calls") - counts["fit_anchor_lasso.delegated"])
    )
    return out


def run(args, run_dir):
    import workloads
    from anchorlab import cli

    setup_samples, setup_dir, facts = run_setup(args, run_dir)

    ops_per_session = None
    session_times = {False: [], True: []}
    op_times = {}
    failures = []
    reference = None
    traced_layers = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < MIN_SESSIONS or time.perf_counter() < deadline:
        traced = bool(args.trace) and index % 2 == 1
        rep_dir = os.path.join(run_dir, f"session{index}")
        ops = workloads.session(args.workload, args.seed, facts, setup_dir, rep_dir)
        ops_per_session = len(ops)
        tracer = tracing.Tracer() if traced else None
        restore = tracing.instrument(tracer) if traced else None
        session_s = 0.0
        try:
            for name, argv, label in ops:
                # start each subcommand from a collected heap, as a fresh
                # CLI process would, so earlier garbage does not time it
                gc.collect()
                code, seconds, output = invoke(cli, argv, tracer)
                session_s += seconds
                if not traced:
                    op_times.setdefault(name, []).append(seconds)
                if code != 0:
                    failures.append((index, label, f"exit code {code}: {output[-2000:]}"))
        finally:
            if restore:
                restore()
        session_times[traced].append(session_s)
        if traced:
            traced_layers.append(layer_metrics(tracer))
        digests = workloads.digest_tree(rep_dir)
        if reference is None:
            reference = digests
        else:
            for _, _, label in ops:
                prefix = label + os.sep
                mine = {k: v for k, v in digests.items() if k.startswith(prefix)}
                theirs = {k: v for k, v in reference.items() if k.startswith(prefix)}
                if mine != theirs:
                    failures.append((index, label, "outputs differ from session 0"))
            shutil.rmtree(rep_dir)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sessions = index
    first = os.path.join(run_dir, "session0")
    try:
        gate_failures, gate_values = workloads.check_outputs(
            args.workload, facts, setup_dir, first)
    except (OSError, ValueError, KeyError) as exc:
        gate_failures, gate_values = [("path", f"output gate could not run: {exc!r}")], {}
    for label, reason in gate_failures:
        failures.extend((i, label, reason) for i in range(sessions))

    failed_ops = {(i, label) for i, label, _ in failures}
    attempted = sessions * ops_per_session
    untraced = session_times[False]
    detail = {
        "benchmark": "anchorlab",
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "loop": "closed, 1 client, in-process cli.main calls",
        "machine": machine_info(),
        "setup": {
            "reps": len(setup_samples),
            "import_s": [s["import_s"] for s in setup_samples],
            "build_s": [s["build_s"] for s in setup_samples],
        },
        "facts": facts,
        "sessions": {"untraced": len(untraced), "traced": len(session_times[True])},
        "session_s": summary(untraced),
        "subcommands": {f"{k}_s": summary(v) for k, v in sorted(op_times.items())},
        "error_rate": {
            "value": len(failed_ops) / attempted,
            "failed": len(failed_ops),
            "attempted": attempted,
        },
        "failures": [{"session": i, "op": n, "reason": r} for i, n, r in failures[:20]],
        "gates": workloads.gates_description(),
        "gate_values": gate_values,
        "digests": reference,
    }
    if args.trace:
        # median_low keeps counts whole when the traced sessions are even
        layers = {
            key: statistics.median_low(session[key] for session in traced_layers)
            for key in traced_layers[0]
        }
        detail["layers"] = layers
        detail["qr_per_fit_basis"] = {
            "qr_calls": layers["numkern.orthonormal_range.calls"],
            "fits": layers["fits"],
            "expected_qr_calls": layers["qr_calls_expected"],
            "rule": QR_BASIS,
        }
        detail["trace_overhead_s"] = (
            statistics.median(session_times[True]) - statistics.median(untraced)
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setup_samples),
            "session_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        for sub in ("fit", "path"):
            values[f"{sub}_s"] = statistics.median(op_times[sub])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "anchorlab", "cli.py")):
        print(f"anchorlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
