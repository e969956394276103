"""Benchmark of the tangentgp CLI pipelines, run in-process.

    python3 perfbench/run.py --workload adapt-cache --seed 0 --seconds 20 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it
sits in and exits 2 when that is missing. Inputs come from ``--seed``;
the work directory lives under ``.perfbench_work/`` in the checkout and is
removed at exit. The last line of standard output is the result; the line
before it is a report with every metric the workload applies to, the
sample counts, the environment and any failures. See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: stable timings on a shared machine and bitwise
# repeatable outputs. Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return float(np.percentile(values, 90)) if values else 0.0


def _commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tangentgp").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _commit(ROOT),
        "source_sha256": source.hexdigest()[:16],
    }


def run_rounds(workload, calls, seconds: float, min_rounds: int, tracer=None):
    """Repeat rounds until ``seconds`` have passed; per-round wall times
    and, when traced, per-round differences of the tracer totals."""
    walls, raw_walls, deltas = [], [], []
    start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - start < seconds:
        before = tracer.snapshot() if tracer else None
        mark = calls.mark()
        produced = workload.round(calls)
        raw_walls.append(time.perf_counter() - mark[2] - (calls.reference_total - mark[1]))
        walls.append(calls.scaled(mark))
        if tracer:
            deltas.append(_difference(tracer.snapshot(), before))
        calls.end_round(produced)
    return walls, raw_walls, deltas


def _difference(after: dict, before: dict) -> dict:
    return {
        group: {k: v - before[group].get(k, 0) for k, v in values.items()}
        for group, values in after.items()
    }


def layer_metrics(delta: dict, wall: float) -> dict:
    """Per-layer figures of one traced round (see README.md for the table)."""
    calls, total, own, counts = (delta[g] for g in ("calls", "total_s", "self_s", "counts"))

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "net.train.steps": (counts.get("net.train.steps", 0), "count"),
        "net.train.self_s": (own.get("net.train", 0.0), "s"),
        "net.jacobian_op.calls": (calls.get("net.jacobian_op", 0), "count"),
        "net.jacobian_op.self_s": (own.get("net.jacobian_op", 0.0), "s"),
        "net.forward.self_s": (own.get("net.forward", 0.0), "s"),
    }
    for kind in ("jvp", "vjp"):
        name = f"net.{kind}"
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
        gflop = ratio(counts.get(f"{name}.flops", 0), total.get(name, 0.0)) / 1e9
        out[f"{name}.gflop_per_s"] = (gflop, "GFLOP/s")
    out.update(
        {
            "net.dense.self_s": (own.get("net.dense", 0.0), "s"),
            "gp.kernel_matrix.calls": (calls.get("gp.kernel_matrix", 0), "count"),
            "gp.kernel_matrix.columns": (counts.get("gp.kernel_matrix.columns", 0), "count"),
            "gp.kernel_matrix.self_s": (own.get("gp.kernel_matrix", 0.0), "s"),
            "adapt.loo.self_s": (own.get("adapt.loo", 0.0), "s"),
            "linalg.cg.calls": (calls.get("linalg.cg", 0), "count"),
            "linalg.cg.iterations": (counts.get("linalg.cg.iterations", 0), "count"),
            "linalg.cg.converged_frac": (
                ratio(counts.get("linalg.cg.converged", 0), calls.get("linalg.cg", 0)), "frac"),
            "linalg.cg.self_s": (own.get("linalg.cg", 0.0), "s"),
            "linalg.op_apply.calls": (calls.get("linalg.op_apply", 0), "count"),
            "linalg.lanczos.steps": (counts.get("linalg.lanczos.steps", 0), "count"),
            "linalg.lanczos.exhausted_frac": (
                ratio(counts.get("linalg.lanczos.exhausted", 0), calls.get("linalg.lanczos", 0)),
                "frac"),
            "linalg.lanczos.self_s": (own.get("linalg.lanczos", 0.0), "s"),
            "linalg.inverse_root.self_s": (own.get("linalg.inverse_root", 0.0), "s"),
            "gp.fit.function.calls": (counts.get("gp.fit.function.calls", 0), "count"),
            "gp.fit.parameter.calls": (counts.get("gp.fit.parameter.calls", 0), "count"),
            "gp.fit.self_s": (own.get("gp.fit", 0.0), "s"),
            "gp.predict.points": (counts.get("gp.predict.points", 0), "count"),
            "gp.predict.self_s": (own.get("gp.predict", 0.0), "s"),
            "adapt.refit_last_layer.calls": (calls.get("adapt.refit_last_layer", 0), "count"),
            "adapt.refit_last_layer.self_s": (own.get("adapt.refit_last_layer", 0.0), "s"),
            "glm.fit_map.steps": (counts.get("glm.fit_map.steps", 0), "count"),
            "glm.fit_map.self_s": (own.get("glm.fit_map", 0.0), "s"),
            "glm.laplace_precision.self_s": (own.get("glm.laplace_precision", 0.0), "s"),
            "glm.sample.self_s": (own.get("glm.sample", 0.0), "s"),
            "fisher.hessian_block.calls": (calls.get("fisher.hessian_block", 0), "count"),
            "fisher.hessian_block.self_s": (own.get("fisher.hessian_block", 0.0), "s"),
            "config.load_checkpoint.s": (total.get("config.load_checkpoint", 0.0), "s"),
            "gp.posterior_io.bytes": (counts.get("gp.posterior_io.bytes", 0), "B"),
            "gp.save_posterior.s": (total.get("gp.save_posterior", 0.0), "s"),
            "gp.load_posterior.s": (total.get("gp.load_posterior", 0.0), "s"),
            "serialize.read_csv.s": (total.get("serialize.read_csv", 0.0), "s"),
            "serialize.render_csv.s": (total.get("serialize.render_csv", 0.0), "s"),
            "serialize.write.bytes": (counts.get("serialize.write.bytes", 0), "B"),
            "cli.self_s": (own.get("cli", 0.0), "s"),
            # Round time not covered by any span: the benchmark's own loop.
            "trace.unattributed_s": (wall - sum(own.values()), "s"),
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round per phase: checks that every metric is emitted")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tangentgp" / "__init__.py").is_file():
        print(f"perfbench: no tangentgp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tangentgp.cli
    from spans import Tracer
    from workloads import WORKLOADS, Calls

    if Path(tangentgp.__file__).resolve().parent != ROOT / "src" / "tangentgp":
        print(f"perfbench: imported tangentgp from {tangentgp.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work, WORKLOADS[args.workload], Calls, Tracer, tangentgp.cli.main)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, workload_cls, Calls, Tracer, cli_main) -> int:
    smoke = args.smoke
    workload = workload_cls(args.seconds, smoke)

    # Set-up writes the inputs, trains the source checkpoint where the
    # workload does so in set-up, and runs one warm-up round so that lazy
    # first-call costs are paid before timing. It runs several times; the
    # last one is used.
    setup_calls = Calls(cli_main)
    setup_times = []
    for k in range(1 if smoke else SETUPS):
        target = work / f"setup-{k}"
        target.mkdir(parents=True)
        mark = setup_calls.mark()
        try:
            workload.setup(setup_calls, target, args.seed)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        workload.round(setup_calls)
        setup_times.append(setup_calls.scaled(mark))

    calls = Calls(cli_main)
    tracer = None
    if args.trace:
        # Half the time untraced, half traced: the difference of the two
        # round times is the tracing overhead.
        walls, _, _ = run_rounds(workload, calls, args.seconds / 2, 1)
        tracer = Tracer()
        calls.tracer = tracer
        tracer.install()
        try:
            traced_walls, traced_raw, deltas = run_rounds(
                workload, calls, args.seconds / 2, 1, tracer
            )
        finally:
            tracer.uninstall()
            calls.tracer = None
    else:
        walls, _, _ = run_rounds(workload, calls, args.seconds, 1 if smoke else workload.min_rounds)
    quality = workload.check(calls)

    by_kind = {}
    for (kind, traced), values in calls.latency.items():
        if not traced:
            by_kind.setdefault(kind, []).extend(values)
    setup_train = setup_calls.latency.get(("train", False), [])
    train_s = _median(by_kind.get("train") or setup_train)
    fit = by_kind.get(workload.fit_kind, [])
    e2e = {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median(walls), "s"),
        "fit_ms": (_median(calls.round_means[(workload.fit_kind, False)]) * 1e3, "ms"),
        "read_ms": (_median(calls.round_means[(workload.read_kind, False)]) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    report = dict(e2e)
    report["train_steps_per_s"] = (workload.train_steps() / train_s if train_s else 0.0, "1/s")
    for kind, values in sorted(by_kind.items()):
        report[f"{kind}_p50_ms"] = (_median(values) * 1e3, "ms")
        report[f"{kind}_p90_ms"] = (_p90(values) * 1e3, "ms")
    if workload.fit_kind == "glm_fit":
        report["glm_fit_s"] = (_median(fit), "s")
    if workload.fit_kind == "adapt":
        report["tasks_per_s"] = (workload.tasks_per_fit * len(fit) / sum(fit) if fit else 0.0, "1/s")
    if "adapt_mse" in quality:
        mses = quality["adapt_mse"]
        report["adapt_mse"] = (sum(mses) / len(mses) if mses else math.nan, "mse")
    if "var_ok" in quality:
        ok, n = quality["var_ok"]
        report["var_ok_frac"] = (ok / n if n else 0.0, "frac")
    report["slowdown"] = (calls.slowdown(), "x")
    failed = len(calls.failed)
    report["failed_frac"] = (failed / calls.attempted, "frac")

    problems = list(calls.problems)
    metrics = e2e
    drift = False
    if tracer is not None:
        per_round = [layer_metrics(d, w) for d, w in zip(deltas, traced_raw)]
        metrics = {
            name: (_median([r[name][0] for r in per_round]), unit)
            for name, (_, unit) in per_round[0].items()
        }
        metrics["trace.overhead_s"] = (_median(traced_walls) - _median(walls), "s")
        drift = any(
            d["calls"] != deltas[0]["calls"] or d["counts"] != deltas[0]["counts"]
            for d in deltas[1:]
        )
        if drift:
            problems.append("traced rounds differ in their counters")
        problems += tracer.mismatches
        tracer.write_records(
            ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        report.update(metrics)

    correct = calls.check_failures == 0 and not drift and not (tracer and tracer.mismatches)
    samples = {kind: len(v) for kind, v in sorted(by_kind.items())}
    samples["rounds"] = len(walls)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                "samples": samples,
                "environment": environment(args.seed),
                "problems": problems[:20],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": calls.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
