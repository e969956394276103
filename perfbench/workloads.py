"""The benchmark's three workloads.

Each workload writes its inputs from the seed during set-up, then runs
rounds of CLI calls through ``Calls``. Every round of a run repeats the
same calls on the same inputs, so rounds can be compared byte for byte
and per-round counters repeat exactly. ``check`` holds the outputs of the
last round to dense references and returns the quality figures.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracle

# Relative tolerance of predictive means against the dense closed form.
# CG stops at a relative residual of 1e-8; the mean is a smooth function
# of the solution, so 1e-6 leaves room for conditioning without hiding a
# wrong solve.
MEAN_RTOL = 1e-6
# Relative tolerance of predictive variances against the dense closed
# form, with an absolute floor of VAR_ATOL times the largest prior variance.
VAR_RTOL = 1e-3
VAR_ATOL = 1e-9
# Class probabilities must sum to one to within this.
PROB_SUM_TOL = 1e-9

# The host is shared: neighbours slow execution by up to about 1.5x in
# bursts lasting seconds. A fixed reference kernel runs between calls, and
# the wall times of each round (and each set-up) are scaled to the speed at
# which that kernel takes REFERENCE_S, using its median time over the same
# interval: scaled times read as wall times on a machine where the kernel
# takes REFERENCE_S. The kernel mixes the two kinds of work the library
# does, which contention slows by different amounts: small products in a
# Python loop, and matrix-vector products over a 2 MB matrix.
REFERENCE_S = 1.5e-3
_REF_RNG = np.random.default_rng(0)
_REF_WEIGHTS = [_REF_RNG.standard_normal((32, 32)) / 6.0 for _ in range(3)]
_REF_INPUT = _REF_RNG.standard_normal((16, 32))
_REF_MATRIX = _REF_RNG.standard_normal((1024, 256))


def _reference_kernel() -> None:
    h = _REF_INPUT
    for _ in range(60):
        for w in _REF_WEIGHTS:
            h = np.tanh(h @ w)
    v = h[0].repeat(8)
    for _ in range(8):
        v = _REF_MATRIX.T @ (_REF_MATRIX @ v) / 1024.0


class Calls:
    """Runs CLI commands in-process, one at a time, and records each.

    A closed loop with a single caller: the next call starts only after
    the previous one returned. A call fails when it exits nonzero or when
    an output it produced fails a check.
    """

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.tracer = None
        self.latency = defaultdict(list)  # (kind, traced) -> scaled seconds
        self.round_means = defaultdict(list)  # (kind, traced) -> mean per round
        self.attempted = 0
        self.failed = set()
        self.problems = []
        self.check_failures = 0
        self.references = []
        self.reference_total = 0.0
        self._unscaled = []
        self._producer = {}
        self._history = {}

    def _reference(self) -> float:
        start = time.perf_counter()
        _reference_kernel()
        took = time.perf_counter() - start
        self.references.append(took)
        self.reference_total += took
        return took

    def mark(self):
        """Start of an interval to be scaled with ``scaled``."""
        return len(self.references), self.reference_total, time.perf_counter()

    def scaled(self, mark) -> float:
        """Scale the interval since ``mark`` and the calls made in it.

        Returns the interval's scaled wall time, reference kernels excluded.
        """
        count, spent, start = mark
        raw = time.perf_counter() - start - (self.reference_total - spent)
        scale = REFERENCE_S / statistics.median(self.references[count:] or [self._reference()])
        in_round = defaultdict(list)
        for key, elapsed in self._unscaled:
            in_round[key].append(elapsed * scale)
        for key, values in in_round.items():
            self.latency[key] += values
            self.round_means[key].append(sum(values) / len(values))
        self._unscaled = []
        return raw * scale

    def slowdown(self) -> float:
        """Median reference time over REFERENCE_S: how contended the run was."""
        return statistics.median(self.references) / REFERENCE_S if self.references else math.nan

    def run(self, kind: str, argv, outputs=()) -> bool:
        self.attempted += 1
        call_id = self.attempted
        for path in outputs:
            self._producer[path] = call_id
        self._reference()
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                self.tracer.task_id = call_id
                code = self.tracer.span("cli", self.cli_main, list(argv))
            else:
                code = self.cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is recorded as a failed call
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code == 0:
            self._unscaled.append(((kind, self.tracer is not None), elapsed))
            return True
        self.failed.add(call_id)
        self.problems.append(f"{kind} call {call_id} exited with {code}")
        return False

    def end_round(self, paths) -> None:
        """Digest a round's outputs; each must equal the first round's bytes."""
        for path in paths:
            data = path.read_bytes() if path.exists() else None
            found = hashlib.sha256(data).hexdigest() if data is not None else None
            history = self._history.setdefault(path, [])
            if history and found != history[0][0]:
                self._fail_check(self._producer[path], f"{path.name} differs from the first round")
            history.append((found, self._producer[path]))

    def reject(self, path: Path, why: str) -> None:
        """An output of the last round failed its check; so did every
        earlier round that wrote the same bytes."""
        history = self._history.get(path, [(None, self._producer.get(path))])
        last = history[-1][0]
        for found, call_id in history:
            if found == last:
                self.failed.add(call_id)
        self.check_failures += 1
        self.problems.append(why)

    def _fail_check(self, call_id, why: str) -> None:
        self.failed.add(call_id)
        self.check_failures += 1
        self.problems.append(why)


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.default_rng([seed, tag])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_dataset(path: Path, x, y) -> None:
    header = [f"x_{j}" for j in range(x.shape[1])] + [f"y_{j}" for j in range(y.shape[1])]
    _write_csv(path, header, np.hstack([x, y]))


def _write_inputs(path: Path, x) -> None:
    _write_csv(path, [f"x_{j}" for j in range(x.shape[1])], x)


def _write_labeled(path: Path, x, labels) -> None:
    header = [f"x_{j}" for j in range(x.shape[1])] + ["label"]
    lines = [",".join(header)] + [
        ",".join([*(_fmt(v) for v in row), str(int(label))]) for row, label in zip(x, labels)
    ]
    path.write_text("\n".join(lines) + "\n")


def _read_rows(path):
    """(header, rows) of a CLI CSV output, provenance comments skipped."""
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def _train_config(work: Path, seed: int, arch: dict, optimizer: dict, task: dict) -> None:
    _write_json(
        work / "train.json",
        {"version": 1, "seed": seed, "architecture": arch, "optimizer": optimizer, "task": task},
    )


def _setup_train(calls, work: Path) -> Path:
    """Train the source checkpoint during set-up; set-up fails if it does."""
    ckpt = work / "ckpt.json"
    argv = ["train", "--config", str(work / "train.json"), "--out", str(ckpt)]
    if not calls.run("train", argv):
        raise RuntimeError("set-up training failed: " + "; ".join(calls.problems))
    return ckpt


def _check_train_trace(calls, trace: Path, epochs: int) -> None:
    if not trace.exists():
        calls.reject(trace, f"{trace.name} missing")
        return
    _, rows = _read_rows(trace)
    losses = [float(r[1]) for r in rows]
    if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
        calls.reject(trace, f"{trace.name}: {len(losses)} rows for {epochs} epochs, or non-finite")


def _check_fit_rows(calls, path: Path, tasks: int, methods) -> list[float]:
    """Every task and method has a row with finite metrics.

    Returns the finite-NTK MSE of each task.
    """
    if not path.exists():
        calls.reject(path, f"{path.name} missing")
        return []
    header, rows = _read_rows(path)
    mse_col, nll_col = header.index("mse"), header.index("nll")
    seen = sorted((r[0], r[1]) for r in rows)
    expected = sorted((str(t), m) for t in range(tasks) for m in methods)
    if seen != expected:
        calls.reject(path, f"{path.name}: {len(seen)} rows for {tasks} tasks x {len(methods)} methods")
    values = [float(r[col]) for r in rows for col in (mse_col, nll_col)]
    if not all(math.isfinite(v) for v in values):
        calls.reject(path, f"{path.name}: non-finite metric")
    return [float(r[mse_col]) for r in rows if r[1] == "finite-ntk"]


def _check_predict(calls, pred: Path, posterior: Path, ckpt: Path, context, query):
    """Hold a ``predict`` output to the dense closed form.

    Means must agree to MEAN_RTOL (a failed check); variances are scored
    against VAR_RTOL. Returns (variances within tolerance, variances).
    """
    if not pred.exists() or not posterior.exists():
        calls.reject(pred, f"{pred.name}: output or posterior missing")
        return 0, len(query)
    header, rows = _read_rows(pred)
    if len(rows) != len(query) or header[-2:] != ["mean_0", "var_0"]:
        calls.reject(pred, f"{pred.name}: {len(rows)} rows with header {header[-2:]}")
        return 0, len(query)
    got = np.array([[float(v) for v in r[-2:]] for r in rows])
    with np.load(posterior, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
    arch, params = oracle.load_network(ckpt)
    x_ctx, y_ctx = context
    f_ctx, jac_ctx = oracle.forward_and_jacobian(arch, params, x_ctx)
    _, jac_q = oracle.forward_and_jacobian(arch, params, query)
    # The CLI fits the residual of the network (centering is on by default)
    # and predicts the GP part alone.
    mean, var, prior = oracle.gp_posterior(
        jac_ctx, (y_ctx - f_ctx).ravel(), jac_q, meta["noise_variance"]
    )
    scale = max(1.0, float(np.max(np.abs(mean))))
    err = float(np.max(np.abs(got[:, 0] - mean)))
    if not (np.all(np.isfinite(got)) and err <= MEAN_RTOL * scale):
        calls.reject(pred, f"{pred.name}: mean off the dense closed form by {err:.3e}")
    floor = VAR_ATOL * float(np.max(prior))
    ok = np.abs(got[:, 1] - var) <= VAR_RTOL * np.abs(var) + floor
    return int(np.count_nonzero(ok)), len(query)


# ---------------------------------------------------------------------------


class SinusoidTransfer:
    """README walkthrough: train a 1-D sinusoid source, adapt to 20 tasks.

    The minibatch training loop and the last-layer baselines dominate; GP
    systems are 10-dimensional, so ``gp`` and ``linalg`` work is bypassed.
    """

    name = "sinusoid-transfer"
    fit_kind, read_kind = "adapt", "predict"
    min_rounds = 3
    SOURCE_POINTS, BATCH = 200, 3
    NUM_TASKS, CONTEXT, POINTS, GRID = 20, 10, 50, 100

    def __init__(self, seconds: float, smoke: bool):
        # Training epochs scale with the run length, so a run holds about
        # thirty rounds whatever --seconds is.
        self.source_epochs = 2 if smoke else max(1, round(1.5 * seconds))
        self.head_epochs = 2 if smoke else max(1, round(seconds))
        self.num_tasks = self.tasks_per_fit = 3 if smoke else self.NUM_TASKS

    def setup(self, calls, work: Path, seed: int) -> None:
        arch = {"input_dim": 1, "hidden_widths": [40, 40], "output_dim": 1}
        noise_grid = {"noise_variance": 1e-4, "noise_grid_decades": 7}
        _train_config(
            work, seed, arch,
            {"learning_rate": 1e-3, "epochs": self.source_epochs, "batch_size": self.BATCH},
            {"kind": "sinusoid", "points_per_task": self.SOURCE_POINTS},
        )
        _write_json(
            work / "adapt.json",
            {
                "version": 1,
                "seed": seed + 1,
                "architecture": arch,
                "optimizer": {"learning_rate": 1e-3, "epochs": self.head_epochs, "batch_size": self.BATCH},
                "gp": {**noise_grid, "baselines": True},
                "task": {"kind": "sinusoid", "num_tasks": self.num_tasks,
                         "points_per_task": self.POINTS, "context_size": self.CONTEXT},
            },
        )
        _write_json(work / "one.json", {"version": 1, "seed": seed, "gp": noise_grid})
        rng = _rng(seed, "sinusoid-one-task")
        amplitude, frequency, phase = rng.uniform(0.1, 5.0), rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi)
        x = np.sort(rng.uniform(-5.0, 5.0, size=(self.POINTS, 1)), axis=0)
        y = amplitude * np.sin(frequency * x + phase)
        y = y + rng.normal(0.0, math.sqrt(0.01 * amplitude), x.shape)
        picks = (np.arange(self.CONTEXT) * self.POINTS + self.POINTS // 2) // self.CONTEXT
        rest = np.setdiff1d(np.arange(self.POINTS), picks)
        self.context = (x[picks], y[picks])
        _write_dataset(work / "ctx.csv", x[picks], y[picks])
        _write_dataset(work / "eval.csv", x[rest], y[rest])
        _write_json(
            work / "one_task.json",
            [{"context": "ctx.csv", "eval": "eval.csv", "noise_variance": 0.01 * amplitude}],
        )
        self.query = np.linspace(-5.0, 5.0, self.GRID)[:, None]
        _write_inputs(work / "grid.csv", self.query)
        self.work = work

    def round(self, calls) -> list[Path]:
        w, out = self.work, self.work / "out"
        out.mkdir(exist_ok=True)
        ckpt, trace = out / "ckpt.json", out / "ckpt.trace.csv"
        results, fit, post, pred = (out / n for n in ("results.csv", "fit.csv", "post.npz", "pred.csv"))
        calls.run("train", ["train", "--config", str(w / "train.json"), "--out", str(ckpt)],
                  outputs=(ckpt, trace))
        calls.run("adapt", ["adapt", "--config", str(w / "adapt.json"), "--checkpoint", str(ckpt),
                            "--out", str(results)], outputs=(results,))
        calls.run("adapt_one", ["adapt", "--config", str(w / "one.json"), "--checkpoint", str(ckpt),
                                "--tasks", str(w / "one_task.json"), "--posterior-out", str(post),
                                "--out", str(fit)], outputs=(fit, post))
        calls.run("predict", ["predict", "--checkpoint", str(ckpt), "--posterior", str(post),
                              "--inputs", str(w / "grid.csv"), "--out", str(pred)], outputs=(pred,))
        # Posterior archives carry zip timestamps, so only the text outputs
        # are compared across rounds.
        return [ckpt, trace, results, fit, pred]

    def train_steps(self) -> int:
        return self.source_epochs * math.ceil(self.SOURCE_POINTS / self.BATCH)

    def check(self, calls) -> dict:
        out = self.work / "out"
        _check_train_trace(calls, out / "ckpt.trace.csv", self.source_epochs)
        mses = _check_fit_rows(
            calls, out / "results.csv", self.num_tasks, ("finite-ntk", "no-retrain", "last-layer")
        )
        _check_fit_rows(calls, out / "fit.csv", 1, ("finite-ntk",))
        var_ok = _check_predict(
            calls, out / "pred.csv", out / "post.npz", out / "ckpt.json", self.context, self.query
        )
        return {"adapt_mse": mses, "var_ok": var_ok}


class AdaptCache:
    """Single-task GP fits with cached posteriors, then one read of each cache.

    Training is set-up only. Context sizes cross the default variance rank
    (256) and the parameter count p = 433, so both dual spaces occur, and
    both exhausted (full-dimension) and truncated Lanczos runs.
    """

    name = "adapt-cache"
    fit_kind, read_kind = "adapt", "predict"
    tasks_per_fit = 1
    min_rounds = 12  # at least 100 adapt calls
    INPUT_DIM, WIDTHS = 8, [16, 16]
    SOURCE_POINTS, BATCH, EVAL_POINTS, QUERY_POINTS = 400, 32, 50, 256
    SIZES = (16, 48, 96, 160, 224, 288, 352, 416, 480)
    NOISE_STD = 0.05

    def __init__(self, seconds: float, smoke: bool):
        self.sizes = (8, 300) if smoke else self.SIZES
        self.source_epochs = 3 if smoke else 60

    def _target(self, x, w):
        scale = math.sqrt(self.INPUT_DIM)
        return (np.sin(x @ w[0] / scale) + 0.5 * np.cos(x @ w[1] / scale))[:, None]

    def setup(self, calls, work: Path, seed: int) -> None:
        d = self.INPUT_DIM
        rng = _rng(seed, "adapt-cache")
        w_source = rng.standard_normal((2, d))
        x = rng.uniform(-2.0, 2.0, size=(self.SOURCE_POINTS, d))
        y = self._target(x, w_source) + rng.normal(0.0, self.NOISE_STD, (len(x), 1))
        _write_dataset(work / "source.csv", x, y)
        _train_config(
            work, seed, {"input_dim": d, "hidden_widths": self.WIDTHS, "output_dim": 1},
            {"learning_rate": 1e-2, "epochs": self.source_epochs, "batch_size": self.BATCH},
            {"kind": "csv", "train_csv": str(work / "source.csv")},
        )
        self.ckpt = _setup_train(calls, work)
        _write_json(
            work / "adapt.json",
            {"version": 1, "seed": seed, "gp": {"noise_variance": 1e-4, "noise_grid_decades": 6}},
        )
        self.contexts = []
        for i, n in enumerate(self.sizes):
            # Each task perturbs the source function's features.
            w_task = w_source + 0.3 * rng.standard_normal((2, d))
            xt = rng.uniform(-2.0, 2.0, size=(n + self.EVAL_POINTS, d))
            yt = self._target(xt, w_task) + rng.normal(0.0, self.NOISE_STD, (len(xt), 1))
            self.contexts.append((xt[:n], yt[:n]))
            _write_dataset(work / f"ctx_{i}.csv", xt[:n], yt[:n])
            _write_dataset(work / f"eval_{i}.csv", xt[n:], yt[n:])
            _write_json(
                work / f"task_{i}.json",
                [{"context": f"ctx_{i}.csv", "eval": f"eval_{i}.csv",
                  "noise_variance": self.NOISE_STD**2}],
            )
        self.query = rng.uniform(-2.0, 2.0, size=(self.QUERY_POINTS, d))
        _write_inputs(work / "query.csv", self.query)
        self.work = work

    def round(self, calls) -> list[Path]:
        w, out = self.work, self.work / "out"
        out.mkdir(exist_ok=True)
        produced = []
        for i in range(len(self.sizes)):
            fit, post = out / f"fit_{i}.csv", out / f"post_{i}.npz"
            calls.run("adapt", ["adapt", "--config", str(w / "adapt.json"),
                                "--checkpoint", str(self.ckpt), "--tasks", str(w / f"task_{i}.json"),
                                "--posterior-out", str(post), "--out", str(fit)],
                      outputs=(fit, post))
            produced.append(fit)
        for i in range(len(self.sizes)):
            pred = out / f"pred_{i}.csv"
            calls.run("predict", ["predict", "--checkpoint", str(self.ckpt),
                                  "--posterior", str(out / f"post_{i}.npz"),
                                  "--inputs", str(w / "query.csv"), "--out", str(pred)],
                      outputs=(pred,))
            produced.append(pred)
        return produced

    def train_steps(self) -> int:
        return self.source_epochs * math.ceil(self.SOURCE_POINTS / self.BATCH)

    def check(self, calls) -> dict:
        out = self.work / "out"
        mses, var_ok, var_n = [], 0, 0
        for i, context in enumerate(self.contexts):
            mses += _check_fit_rows(calls, out / f"fit_{i}.csv", 1, ("finite-ntk",))
            ok, n = _check_predict(
                calls, out / f"pred_{i}.csv", out / f"post_{i}.npz", self.ckpt, context, self.query
            )
            var_ok, var_n = var_ok + ok, var_n + n
        return {"adapt_mse": mses, "var_ok": (var_ok, var_n)}


class GlmLaplace:
    """Linearized softmax GLM: a Laplace fit, then single-sample draws.

    The Fisher sits on the 80 training inputs with 4 classes, so each draw
    runs a Lanczos budget of 80 * 3 + 2 = 242 steps in p-space (p = 1316),
    where full reorthogonalization dominates.
    """

    name = "glm-laplace"
    fit_kind, read_kind = "glm_fit", "draw"
    min_rounds = 10  # at least 100 draws
    INPUT_DIM, WIDTHS, CLASSES = 3, [32, 32], 4
    TRAIN_POINTS, BATCH, QUERY_POINTS, DRAWS = 80, 16, 32, 10

    def __init__(self, seconds: float, smoke: bool):
        self.train_points = 12 if smoke else self.TRAIN_POINTS
        self.source_epochs = 3 if smoke else 100
        self.glm_epochs = 2 if smoke else 150
        self.draws = 2 if smoke else self.DRAWS

    def setup(self, calls, work: Path, seed: int) -> None:
        d, c = self.INPUT_DIM, self.CLASSES
        rng = _rng(seed, "glm-laplace")
        centers = rng.normal(0.0, 1.5, size=(c, d))

        def sample(n):
            labels = np.arange(n) % c
            return centers[labels] + rng.normal(0.0, 1.0, (n, d)), labels

        x, labels = sample(self.train_points)
        _write_dataset(work / "source.csv", x, np.eye(c)[labels])
        _train_config(
            work, seed, {"input_dim": d, "hidden_widths": self.WIDTHS, "output_dim": c},
            {"learning_rate": 1e-2, "epochs": self.source_epochs, "batch_size": self.BATCH,
             "loss": "categorical-ce"},
            {"kind": "csv", "train_csv": str(work / "source.csv")},
        )
        self.ckpt = _setup_train(calls, work)
        _write_labeled(work / "labeled.csv", x, labels)
        _write_json(
            work / "glm.json",
            {
                "version": 1,
                "seed": seed,
                "glm": {"method": "laplace", "prior_variance": 1.0, "learning_rate": 1e-2,
                        "epochs": self.glm_epochs, "batch_size": self.BATCH,
                        "fisher_source": "train", "predict_mode": "single_sample"},
            },
        )
        _write_inputs(work / "query.csv", sample(self.QUERY_POINTS)[0])
        self.work = work

    def round(self, calls) -> list[Path]:
        w, out = self.work, self.work / "out"
        out.mkdir(exist_ok=True)
        fit = out / "fit.json"
        calls.run("glm_fit", ["glm-fit", "--config", str(w / "glm.json"), "--checkpoint", str(self.ckpt),
                              "--data", str(w / "labeled.csv"), "--out", str(fit)], outputs=(fit,))
        produced = [fit]
        for k in range(self.draws):
            probs = out / f"probs_{k}.csv"
            calls.run("draw", ["glm-predict", "--config", str(w / "glm.json"),
                                      "--checkpoint", str(self.ckpt), "--fit", str(fit),
                                      "--inputs", str(w / "query.csv"), "--seed", str(k),
                                      "--out", str(probs)], outputs=(probs,))
            produced.append(probs)
        return produced

    def train_steps(self) -> int:
        return self.source_epochs * math.ceil(self.train_points / self.BATCH)

    def check(self, calls) -> dict:
        out = self.work / "out"
        fit = out / "fit.json"
        dims = [self.INPUT_DIM, *self.WIDTHS, self.CLASSES]
        p = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
        mean = json.loads(fit.read_text()).get("mean", []) if fit.exists() else []
        if len(mean) != p or not all(math.isfinite(v) for v in mean):
            calls.reject(fit, f"fit.json: mean of length {len(mean)} for p = {p}, or non-finite")
        for k in range(self.draws):
            path = out / f"probs_{k}.csv"
            if not path.exists():
                calls.reject(path, f"{path.name} missing")
                continue
            _, rows = _read_rows(path)
            probs = np.array([[float(v) for v in r[2:]] for r in rows])
            labels = np.array([int(r[1]) for r in rows])
            ok = (
                probs.shape == (self.QUERY_POINTS, self.CLASSES)
                and np.all(np.isfinite(probs))
                and np.all((probs >= 0.0) & (probs <= 1.0))
                and np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOL)
                and np.array_equal(labels, np.argmax(probs, axis=1))
            )
            if not ok:
                calls.reject(path, f"{path.name}: probabilities not finite, in [0, 1] and summing to 1")
        return {}


WORKLOADS = {w.name: w for w in (SinusoidTransfer, AdaptCache, GlmLaplace)}
