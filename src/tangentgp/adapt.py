"""Fast adaptation: train a network once, refit a tangent-kernel GP per task.

The workflow trains a source network a single time, then treats each new
task as GP regression with the source's Jacobian features: no gradients,
no retraining, one Gram eigendecomposition per task (a CG solve for large
fixed-noise tasks). Tasks with an exact kernel-side fit and the same
context and eval sizes are adapted together: one forward trace per input
set for the whole group, and batched kernels, eigendecompositions,
leave-one-out scores and predictions over a leading task axis.
The baselines (no retraining at all, refitting only the final layer)
live here too: all heads are refitted in one stacked loop, and both
baselines of every eval set of one size come from one forward trace of
the source. Metrics reduce over the last two axes, so every stack is
scored in one pass. A seeded sinusoid task generator and the sinusoid
transfer experiment complete the module.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractViolationError, FitError, TangentGpError, TrainingDivergenceError
from .gp import (
    MEAN_KINDS,
    GramFactor,
    NtkPosterior,
    _check_target_width,
    _dual_weights,
    _eigh_psd,
    _exact_root,
    _exact_side,
    _kernel_form_variances,
    _mean_surface,
    _swap,
    _task_kernels,
    factor_gram,
    fit_posterior,
    loo_scores,
    predict,
)
from .net import (
    DENSE_JACOBIAN_CAP,
    JacobianOperator,
    MlpArchitecture,
    MlpNetwork,
    OptimizerConfig,
    TaskDataset,
    _check_loss,
    _forward_trace,
    _loss_and_output_grad,
    _minibatches,
    forward,
    init_network,
    make_optimizer,
    train,
)
from .seeding import substream
from .serialize import canonical_json, fmt_float, render_csv

log = logging.getLogger(__name__)

RESULT_COLUMNS = ("task_id", "method", "context_size", "mse", "nll")
_METHODS = ("finite-ntk", "no-retrain", "last-layer")


@dataclass(frozen=True)
class Metrics:
    """Evaluation metrics for one method on one task."""

    mse: float
    nll: float


def _regression_view(arch: MlpArchitecture, outputs: np.ndarray) -> np.ndarray:
    """Internal ``outputs`` (..., columns) in the regression view
    (``MlpArchitecture.regression_channels``)."""
    channels = arch.regression_channels
    return outputs if channels is None else outputs[..., list(channels)]


def gaussian_nll(mean: np.ndarray, variance, targets: np.ndarray):
    """Average negative log density per scalar target under N(mean, variance).

    Reduces over the last two axes (data, channels): a (T, m, o) stack
    gives T values, each bitwise the 2-D call on its slice. ``variance``
    broadcasts against ``mean``; any entry that is not > 0 (NaN included)
    raises.
    """
    variance = np.broadcast_to(np.asarray(variance, dtype=np.float64), mean.shape)
    if not np.all(variance > 0.0):
        raise ContractViolationError("predictive variance must be positive for the NLL")
    dev = targets - mean
    return np.mean(0.5 * (np.log(2.0 * np.pi * variance) + dev * dev / variance), axis=(-2, -1))


def mean_squared_error(pred: np.ndarray, targets: np.ndarray):
    """Mean squared error over the last two axes, like ``gaussian_nll``."""
    dev = pred - targets
    return np.mean(dev * dev, axis=(-2, -1))


def _metrics(pred: np.ndarray, variance, targets: np.ndarray) -> list[Metrics]:
    """The metrics of each task of (T, m, o) stacks of predictions and targets."""
    mse = mean_squared_error(pred, targets)
    nll = gaussian_nll(pred, variance, targets)
    return [Metrics(mse=float(a), nll=float(b)) for a, b in zip(mse, nll)]


# ---------------------------------------------------------------------------
# Task generators


@dataclass(frozen=True)
class SinusoidTaskSpec:
    """Generator for y = A sin(w x + b) + noise regression tasks.

    Amplitudes are Uniform(0.1, 5), frequencies and phases Uniform(0, 2pi),
    and the noise is Gaussian with variance 0.01 A, so harder (larger
    amplitude) tasks are also noisier. Inputs are 1-D uniform draws.
    """

    points_per_task: int = 50
    x_low: float = -5.0
    x_high: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.points_per_task < 1:
            raise ContractViolationError("tasks need at least one point")
        if not self.x_low < self.x_high:
            raise ContractViolationError(
                f"input interval [{self.x_low}, {self.x_high}] is empty"
            )


def sinusoid_targets(amplitude: float, frequency: float, phase: float, x) -> np.ndarray:
    """Noise-free sinusoid values; the deterministic part of the generator."""
    return amplitude * np.sin(frequency * np.asarray(x, dtype=np.float64) + phase)


def sample_sinusoid_tasks(spec: SinusoidTaskSpec, num_tasks: int) -> list[TaskDataset]:
    if num_tasks < 1:
        raise ContractViolationError(f"num_tasks must be >= 1, got {num_tasks}")
    rng = substream(spec.seed, "sinusoid-tasks")
    tasks = []
    for _ in range(num_tasks):
        amplitude = rng.uniform(0.1, 5.0)
        frequency = rng.uniform(0.0, 2.0 * np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.uniform(spec.x_low, spec.x_high, size=(spec.points_per_task, 1))
        noise_variance = 0.01 * amplitude
        y = sinusoid_targets(amplitude, frequency, phase, x)
        y = y + rng.normal(0.0, np.sqrt(noise_variance), size=y.shape)
        tasks.append(TaskDataset(x, y, noise_variance=noise_variance))
    return tasks


def stratified_split(data: TaskDataset, context_size: int):
    """Deterministic (context, evaluation) split with spread-out context points.

    Sorts by the first input coordinate and takes one context point from
    the middle of each of ``context_size`` equal slices, so the context
    covers the input range instead of leaving random gaps. Intended for
    1-D inputs; higher dimensions stratify on the first coordinate only.
    """
    n = data.x.shape[0]
    if not 1 <= context_size <= n:
        raise ContractViolationError(
            f"context size must lie in [1, {n}], got {context_size}"
        )
    order = np.argsort(data.x[:, 0], kind="stable")
    picks = order[(np.arange(context_size) * n + n // 2) // context_size]
    return _split_by_picks(data, picks)


def _split_by_picks(data: TaskDataset, picks: np.ndarray):
    mask = np.zeros(data.x.shape[0], dtype=bool)
    mask[picks] = True
    context = TaskDataset(data.x[mask], data.y[mask], data.noise_variance)
    if mask.all():
        return context, None
    return context, TaskDataset(data.x[~mask], data.y[~mask], data.noise_variance)


def select_noise_by_loo(factor: GramFactor, resid, grid) -> float | np.ndarray:
    """Pick the noise variance whose GP has the smallest leave-one-out MSE.

    ``resid`` is what the fit of ``factor``'s Jacobian regresses (targets
    less the prior mean). With G = K + s I and alpha = G^-1 r, the residual
    left out at point i is alpha_i / (G^-1)_ii, so one eigendecomposition
    scores every candidate (``gp.loo_scores``) instead of n refits each. A
    function-side factor of T stacked kernels, with ``resid`` (T, n*o),
    gives T variances; one task gives a float. A NaN score never wins, and
    ties resolve to the earlier grid entry.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if not grid.size or not np.all((grid > 0) & (grid < np.inf)):
        raise ContractViolationError("noise grid must be positive finite variances")
    resid = np.asarray(resid, dtype=np.float64)
    if resid.size != factor.jac.out_len:
        raise ContractViolationError(
            f"the Gram factor has {factor.jac.out_len} rows but there are {resid.size} targets"
        )
    scores = loo_scores(factor, resid, grid)
    picks = grid[np.argmin(np.where(np.isnan(scores), np.inf, scores), axis=-1)]
    return picks if picks.ndim else float(picks)


# ---------------------------------------------------------------------------
# The adaptation run


@dataclass(frozen=True)
class AdaptConfig:
    """Settings shared by every task in an adaptation run.

    ``center_on_network`` regresses the residual y - f(X) and adds f back
    at prediction, so an uninformative posterior falls back to the source
    network exactly; it requires the zero prior mean (any other
    ``mean_kind`` would count the network's output twice).
    ``noise_variance`` overrides each context's own value (the usual
    choice is the source network's training MSE), while ``noise_grid``
    instead picks the variance per task by leave-one-out error over the
    given candidates: one ``select_noise_by_loo`` call per stacked group
    or per task that runs alone. Each fit solves the smaller of its two
    dual systems (``gp.fit_posterior``), exactly or matrix-free by its
    size alone; no setting picks a system or a path. Every task with an exact kernel-side
    fit (n*o at most p and ``gp.EXACT_FIT_LIMIT``) takes the stacked pass
    of ``run_adaptation``.
    Wall times go to the ``tangentgp`` logger at DEBUG level, never into
    the metrics.
    """

    mean_kind: str = "zero"
    center_on_network: bool = True
    noise_variance: float | None = None
    noise_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mean_kind not in MEAN_KINDS:
            raise ContractViolationError(f"mean kind must be one of {MEAN_KINDS}, got {self.mean_kind!r}")
        if self.center_on_network and self.mean_kind != "zero":
            raise ContractViolationError(
                "centering on the network requires mean_kind 'zero'"
            )
        if self.noise_variance is not None and not 0 < self.noise_variance < np.inf:
            raise ContractViolationError(
                f"noise variance override must be positive and finite, got {self.noise_variance}"
            )
        if self.noise_grid is not None:
            if self.noise_variance is not None:
                raise ContractViolationError(
                    "give either a fixed noise variance or a selection grid, not both"
                )
            if len(self.noise_grid) == 0 or any(not 0 < g < np.inf for g in self.noise_grid):
                raise ContractViolationError("noise grid must be positive finite variances")


def decade_grid(anchor: float, decades: int, key: str, anchor_key: str) -> tuple[float, ...]:
    """The noise grid anchor * 10^d, d < ``decades``; no decades or a non-finite top raise
    ``ConfigError`` naming ``key`` (the setting of ``decades``) and ``anchor_key``."""
    if decades < 1:
        raise ConfigError(f"{key} must be at least 1, got {decades}")
    with np.errstate(over="ignore", invalid="ignore"):
        top = float(anchor) * np.float64(10.0) ** (decades - 1)
    if not np.isfinite(top):
        raise ConfigError(
            f"{key} {decades} overflows: the top of the grid, "
            f"{anchor_key} {anchor} times 10^{decades - 1}, is not finite"
        )
    return tuple(float(anchor) * 10.0**d for d in range(decades))


@dataclass(frozen=True)
class TaskAdaptation:
    """Outcome of adapting to one task: a status plus whatever was produced."""

    task_id: int
    status: str  # "ok" | "no-eval" | "failed"
    posterior: NtkPosterior | None = None
    metrics: Metrics | None = None
    error: str | None = None


@dataclass(frozen=True)
class AdaptationRun:
    source_fingerprint: str
    config: AdaptConfig
    tasks: tuple[TaskAdaptation, ...]


def _result_row(task_id, method: str, context_size, metrics: Metrics):
    return [
        str(task_id),
        method,
        str(context_size),
        fmt_float(metrics.mse),
        fmt_float(metrics.nll),
    ]


def results_csv(rows) -> str:
    return render_csv(list(RESULT_COLUMNS), rows)


def adapt_task(
    source: MlpNetwork,
    context: TaskDataset,
    eval_set: TaskDataset | None,
    cfg: AdaptConfig = AdaptConfig(),
):
    """Fit the tangent-kernel posterior on one context set and evaluate it.

    Returns (posterior, metrics); metrics is None without an eval set.
    Adaptation is linear algebra only: the source parameters are never
    stepped, so the Jacobian is computed fresh here and discarded after.
    Targets narrower or wider than ``output_dim`` raise before any fit.
    A task with an exact kernel-side fit is the one-task call of the
    stacked pass (``run_adaptation``). Any other task (the p side, a
    matrix-free fit, or inputs of the wrong width) runs
    ``gp.fit_posterior`` and ``gp.predict`` on one operator for the
    context, which serves the centering, the noise search and the fit.
    """
    arch = source.architecture
    for data, what in ((context, "context targets"), (eval_set, "eval targets")):
        if data is not None:
            _check_target_width(data.y, arch.output_dim, what)
    if _stack_entries(arch, context, eval_set, cfg) is not None:
        return _adapt_stack(source, [(context, eval_set)], cfg, source.fingerprint())[0]
    sigma2 = cfg.noise_variance if cfg.noise_variance is not None else context.noise_variance
    jac = JacobianOperator(source, context.x, arch.regression_channels)
    targets = context.y - jac.outputs if cfg.center_on_network else context.y
    fit_data = TaskDataset(context.x, targets, noise_variance=sigma2)
    factor = None
    if cfg.noise_grid is not None:
        # One factorization scores the grid and then fits; the score is of
        # the regression the fit runs (targets less the prior mean).
        factor = factor_gram(source, jac)
        resid = fit_data.y - _mean_surface(jac, source.params, cfg.mean_kind)
        sigma2 = select_noise_by_loo(factor, resid, cfg.noise_grid)
        fit_data = replace(fit_data, noise_variance=sigma2)
    posterior = fit_posterior(source, fit_data, mean_kind=cfg.mean_kind, factor=factor)
    if eval_set is None:
        return posterior, None
    mean, var = predict(posterior, source, eval_set.x)
    if cfg.center_on_network:
        mean = mean + _regression_view(arch, forward(source, eval_set.x))
    return posterior, _metrics(mean[None], var[None] + sigma2, eval_set.y[None])[0]


def _stack_entries(arch: MlpArchitecture, context: TaskDataset, eval_set, cfg: AdaptConfig):
    """Entries of the task's largest array in the stacked pass, or None if it runs alone.

    A task stacks when its fit is exact on the kernel side
    (``gp._exact_side``), its inputs and targets have the network's widths
    (else it runs alone, where ``adapt_task`` raises), and its arrays fit
    under ``DENSE_JACOBIAN_CAP``. Those arrays are its
    kernel, its cross kernel to the eval set, its leave-one-out scores and
    its layer sensitivities.
    """
    o = arch.output_dim  # the width of the regression view
    for data in (context, eval_set):
        if data is not None and (data.x.shape[1] != arch.input_dim or data.y.shape[1] != o):
            return None
    rows = context.n * o
    if _exact_side(rows, arch.parameter_count) != "function":
        return None
    cols = 0 if eval_set is None else eval_set.n * o
    widest = max(arch.layer_dims)
    entries = max(rows * max(rows, cols, len(cfg.noise_grid or ())), max(rows, cols) * widest)
    return entries if entries <= DENSE_JACOBIAN_CAP else None


def _adapt_stack(source: MlpNetwork, pairs, cfg: AdaptConfig, fingerprint: str):
    """Adapt T tasks of one context size and one eval size in one batched pass.

    Returns one (posterior, metrics) per (context, eval) pair, as
    ``adapt_task`` defines them. One operator is built over all contexts
    and one over all eval sets. One sensitivity pass over each gives the
    (T, n*o, n*o) kernels, the (T, n*o, m*o) cross kernels and the prior
    variances. One batched eigendecomposition gives every task's
    leave-one-out scores, dual weights c = (K + s I)^-1 r and root
    V (E + s)^-1/2. The eval mean is K(X, X*)' c and the variance is the
    kernel-form one of ``gp.predict``; one reduction over the (T, m, o)
    stacks gives every task's metrics. Any failure raises for the whole
    stack.
    """
    channels = source.architecture.regression_channels
    contexts, evals = zip(*pairs)
    t, n = len(pairs), contexts[0].n
    jac = JacobianOperator(source, np.concatenate([c.x for c in contexts]), channels)
    y = np.concatenate([c.y for c in contexts])
    targets = y - jac.outputs if cfg.center_on_network else y
    resid = (targets - _mean_surface(jac, source.params, cfg.mean_kind)).reshape(t, -1)
    query = None
    if evals[0] is not None:
        query = JacobianOperator(source, np.concatenate([e.x for e in evals]), channels)
    kernels, cross, prior = _task_kernels(jac, query, t)
    factor = GramFactor("function", *_eigh_psd(kernels), jac)
    if cfg.noise_grid is not None:
        sigma2 = select_noise_by_loo(factor, resid, cfg.noise_grid)
    elif cfg.noise_variance is not None:
        sigma2 = np.full(t, float(cfg.noise_variance))
    else:
        sigma2 = np.array([c.noise_variance for c in contexts], dtype=np.float64)
    weights = _dual_weights(factor, resid, sigma2[:, None])
    roots = _exact_root(factor, sigma2[:, None])
    posteriors = [
        NtkPosterior(
            mean_kind=cfg.mean_kind,
            mean_cache=jac.rows(i * n, (i + 1) * n).vjp(weights[i]),
            variance_root=roots[i],
            noise_variance=float(sigma2[i]),
            theta_fingerprint=fingerprint,
            inputs=contexts[i].x.copy(),
        )
        for i in range(t)
    ]
    if query is None:
        return [(posterior, None) for posterior in posteriors]
    shape = (t, evals[0].n, -1)
    mean = (_swap(cross) @ weights[..., None]).reshape(shape)
    mean = mean + _mean_surface(query, source.params, cfg.mean_kind).reshape(shape)
    if cfg.center_on_network:
        mean = mean + query.outputs.reshape(shape)
    var = np.maximum(_kernel_form_variances(roots, cross, prior), 0.0).reshape(shape)
    metrics = _metrics(mean, var + sigma2[:, None, None], np.stack([e.y for e in evals]))
    return list(zip(posteriors, metrics))


def _adapt_one(source: MlpNetwork, task_id: int, context, eval_set, cfg: AdaptConfig):
    started = time.perf_counter()
    try:
        posterior, metrics = adapt_task(source, context, eval_set, cfg)
    except TangentGpError as exc:
        record = TaskAdaptation(task_id, "failed", error=str(exc))
    else:
        record = _record(task_id, posterior, metrics)
    log.debug(
        "task %d: %s in %.3f ms", task_id, record.status, (time.perf_counter() - started) * 1e3
    )
    return record


def _record(task_id: int, posterior: NtkPosterior, metrics: Metrics | None) -> TaskAdaptation:
    status = "no-eval" if metrics is None else "ok"
    return TaskAdaptation(task_id, status, posterior=posterior, metrics=metrics)


def _adapt_group(source: MlpNetwork, pairs, ids, cfg: AdaptConfig, fingerprint: str):
    """Records of the tasks ``ids`` of one stacking group, in order.

    A group of one is a plain ``adapt_task`` call. If the stacked pass
    raises, every task of the group is refitted alone, so that a failure
    is recorded on its own task with that task's message.
    """
    if len(ids) == 1:
        return [_adapt_one(source, ids[0], *pairs[ids[0]], cfg)]
    started = time.perf_counter()
    try:
        results = _adapt_stack(source, [pairs[i] for i in ids], cfg, fingerprint)
    except TangentGpError:
        return [_adapt_one(source, i, *pairs[i], cfg) for i in ids]
    log.debug(
        "adapted %d tasks of %d context points in %.3f ms",
        len(ids),
        pairs[ids[0]][0].n,
        (time.perf_counter() - started) * 1e3,
    )
    return [_record(i, *result) for i, result in zip(ids, results)]


def run_adaptation(source: MlpNetwork, tasks, cfg: AdaptConfig = AdaptConfig()) -> AdaptationRun:
    """Adapt one source network to a list of (context, eval) task pairs.

    Each task is independent: a failure is recorded on its entry (status
    "failed") and the run continues. Tasks without an eval set get status
    "no-eval" and no metrics. Results stay in task order.

    Tasks with an exact kernel-side fit (see ``AdaptConfig``) are grouped
    by (context size, eval size), and each group runs one stacked pass,
    split so that every stacked array stays under ``DENSE_JACOBIAN_CAP``
    entries. Each task's metrics agree with its own ``adapt_task`` call to
    roundoff. Every other task, and every task of a group whose stacked
    pass raises, runs alone through ``adapt_task``. DEBUG logging gives
    one line per stacked group and one per task that runs alone.
    """
    pairs = list(tasks)
    for task_id, (context, _) in enumerate(pairs):
        if not isinstance(context, TaskDataset):
            raise ContractViolationError(f"task {task_id} has no context dataset")
    fingerprint = source.fingerprint()
    records = [None] * len(pairs)
    groups = {}
    for task_id, (context, eval_set) in enumerate(pairs):
        entries = _stack_entries(source.architecture, context, eval_set, cfg)
        if entries is None:
            records[task_id] = _adapt_one(source, task_id, context, eval_set, cfg)
        else:
            key = (context.n, None if eval_set is None else eval_set.n)
            groups.setdefault(key, (entries, []))[1].append(task_id)
    for entries, ids in groups.values():
        size = DENSE_JACOBIAN_CAP // entries
        for start in range(0, len(ids), size):
            part = ids[start : start + size]
            for task_id, record in zip(part, _adapt_group(source, pairs, part, cfg, fingerprint)):
                records[task_id] = record
    return AdaptationRun(source_fingerprint=fingerprint, config=cfg, tasks=tuple(records))


# ---------------------------------------------------------------------------
# Baselines


def score_baselines(
    source: MlpNetwork, tasks, cfg: OptimizerConfig, noise_variance: float | None = None
) -> list[tuple[Metrics, Metrics]]:
    """The (no-retrain, last-layer) metrics of each (context, eval) pair, in order.

    No-retrain scores the unmodified source, the floor every method must
    beat; last-layer scores the fixed-budget head refit of
    ``refit_last_layer``, one call for every context. Eval sets of one
    size are scored together: one forward trace of the source over their
    concatenated inputs gives the no-retrain outputs and the last hidden
    features H, and head t's outputs are H_t W_t' + b_t (a refit's earlier
    layers are the source's, bit for bit). Both are read in the
    regression view. The NLL variance is ``noise_variance``, or else each
    eval set's own.
    """
    tasks = list(tasks)
    arch = source.architecture
    groups = {}
    for task, (_, eval_set) in enumerate(tasks):
        if eval_set is None:
            raise ContractViolationError(f"task {task} has no eval set to score")
        _check_widths(arch, task, eval_set, "eval ")
        groups.setdefault(eval_set.n, []).append(task)
    refits = refit_last_layer(source, [context for context, _ in tasks], cfg)
    scores = [None] * len(tasks)
    for members in groups.values():
        evals = [tasks[i][1] for i in members]
        out, inputs, _ = _forward_trace(source, np.concatenate([e.x for e in evals]))
        shape = (len(members), evals[0].n, -1)
        weights, biases = zip(*(refits[i].layers()[-1] for i in members))
        heads = inputs[-1].reshape(shape) @ np.stack(weights).transpose(0, 2, 1)
        heads = heads + np.stack(biases)[:, None]
        targets = np.stack([e.y for e in evals])
        sigma2 = [e.noise_variance if noise_variance is None else noise_variance for e in evals]
        sigma2 = np.array(sigma2, dtype=np.float64)[:, None, None]
        plain = _metrics(_regression_view(arch, out.reshape(shape)), sigma2, targets)
        tuned = _metrics(_regression_view(arch, heads), sigma2, targets)
        for i, pair in zip(members, zip(plain, tuned)):
            scores[i] = pair
    return scores


def _check_widths(arch: MlpArchitecture, task: int, data: TaskDataset, what: str = "") -> None:
    if data.x.shape[1] != arch.input_dim or data.y.shape[1] != arch.output_dim:
        raise ContractViolationError(
            f"task {task} has {data.x.shape[1]} {what}inputs and {data.y.shape[1]} {what}targets; "
            f"the network takes {arch.input_dim} and emits {arch.output_dim}"
        )


# Overflow ends in the typed divergence errors below, not in raw numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def refit_last_layer(
    source: MlpNetwork, contexts, cfg: OptimizerConfig
) -> tuple[MlpNetwork, ...]:
    """Retrain only the final layer on each context set, features frozen.

    The head of an MLP is an affine network over the last hidden
    activations, which one forward trace per context gives. Contexts of
    one size n draw the same batch order from ``substream(cfg.seed,
    "train")``, so their heads step together as one (T, d) stack under the
    update rules of ``net.train`` (``_train_heads``). Each refit is bitwise
    the ``net.train`` run on that context's one-layer head view by
    construction: both take their batches from ``net._minibatches``.
    Everything before the final layer stays bit-identical. The loss must
    fit the architecture (``net._check_loss``). Returns one network per
    context, in order; a divergence names the context's index.
    """
    started = time.perf_counter()
    arch = source.architecture
    _check_loss(arch, cfg.loss)
    w_slice, b_slice, _, _ = arch.layer_slices()[-1]
    last = slice(w_slice.start, b_slice.stop)  # the final layer's weights, then its bias
    groups = {}
    for task, context in enumerate(contexts):
        _check_widths(arch, task, context)
        features = _forward_trace(source, context.x)[1][-1]
        groups.setdefault(context.n, []).append((task, features, context.y))
    heads = {}
    for members in groups.values():
        tasks, features, targets = zip(*members)
        stack = np.tile(source.params[last], (len(tasks), 1))
        fitted = _train_heads(np.stack(features), np.stack(targets), stack, cfg, tasks)
        heads.update(zip(tasks, fitted))
    refits = []
    for task in range(len(heads)):
        params = source.params.copy()
        params[last] = heads[task]
        refits.append(source.with_params(params))
    log.debug(
        "refit %d last-layer heads in %.3f ms", len(refits), (time.perf_counter() - started) * 1e3
    )
    return tuple(refits)


def _train_heads(features, targets, theta, cfg: OptimizerConfig, tasks):
    """``net.train``'s minibatch loop for a (T, o*f + o) stack of affine heads.

    ``features`` is (T, n, f) and ``targets`` (T, n, o'); every head sees
    the same batch indices. Each step writes its gradient into one (T, d)
    buffer and checks the loss and the parameters with one finiteness
    test each. Raises ``TrainingDivergenceError`` naming the first task
    (from ``tasks``) whose loss or parameters go non-finite.
    """
    t, _, f = features.shape
    o = theta.shape[1] // (f + 1)
    w_count = o * f
    rng = substream(cfg.seed, "train")
    optimizer = make_optimizer(cfg, theta.shape)
    grad = np.empty_like(theta)
    grad_w = grad[:, :w_count].reshape(t, o, f)  # views of the buffer
    grad_b = grad[:, w_count:]

    def outputs(theta, h):
        z = h @ theta[:, :w_count].reshape(t, o, f).transpose(0, 2, 1)
        z += theta[:, None, w_count:]
        return z

    def check(values, what, epoch):
        if np.isfinite(values).all():
            return
        task = tasks[int(np.argmin(np.isfinite(values.reshape(t, -1)).all(axis=1)))]
        raise TrainingDivergenceError(
            f"last-layer refit of task {task}: non-finite {what} at epoch {epoch}",
            epoch=epoch,
            task=task,
        )

    for epoch in range(cfg.epochs):
        for h, y in _minibatches(rng, cfg.batch_size, features, targets, axis=1):
            loss, delta = _loss_and_output_grad(outputs(theta, h), y, cfg.loss)
            check(loss, "training loss", epoch)
            np.matmul(delta.transpose(0, 2, 1), h, out=grad_w)
            np.add.reduce(delta, axis=1, out=grad_b)
            theta = optimizer.step(theta, grad)
            check(theta, "parameters", epoch)
        loss, _ = _loss_and_output_grad(outputs(theta, features), targets, cfg.loss)
        check(loss, "training loss", epoch)
    return theta


# ---------------------------------------------------------------------------
# Sinusoid experiment (source task -> many target tasks)


@dataclass(frozen=True)
class SinusoidExperimentConfig:
    """Defaults for the sinusoid transfer experiment.

    The source task is sampled densely (200 points) so the network is fit
    rather than memorized; a 40-point source reaches a training MSE below
    the task's own noise floor and its tangent features inherit the
    wiggles. ``noise_grid_decades`` spans the per-task noise search from
    the source training MSE upward, letting leave-one-out error back off
    to the prior on target tasks the context undersamples. Every GP fit
    solves the smaller of its two dual systems, as in ``AdaptConfig``.
    """

    num_tasks: int = 20
    context_size: int = 10
    points_per_task: int = 50
    source_points: int = 200
    source_epochs: int = 2500
    source_learning_rate: float = 1e-3
    source_batch_size: int = 3
    noise_grid_decades: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ContractViolationError("experiment needs at least one task")
        if not 1 <= self.context_size < self.points_per_task:
            raise ContractViolationError(
                "context size must leave at least one evaluation point per task"
            )
        if self.noise_grid_decades < 1:
            raise ContractViolationError("the noise grid needs at least one decade")


SOURCE_ARCHITECTURE = MlpArchitecture(1, (40, 40), 1, activation="tanh")


def train_sinusoid_source(cfg: SinusoidExperimentConfig):
    """Train the shared source network on a single sampled sinusoid task."""
    spec = SinusoidTaskSpec(points_per_task=cfg.source_points, seed=cfg.seed)
    source_task = sample_sinusoid_tasks(spec, 1)[0]
    net = init_network(SOURCE_ARCHITECTURE, seed=cfg.seed)
    opt = OptimizerConfig(
        optimizer="sgd-momentum",
        learning_rate=cfg.source_learning_rate,
        epochs=cfg.source_epochs,
        batch_size=cfg.source_batch_size,
        loss="mse",
        seed=cfg.seed,
    )
    result = train(net, source_task, opt)
    return result.network, source_task, opt


@dataclass(frozen=True)
class SinusoidExperiment:
    config: SinusoidExperimentConfig
    source_fingerprint: str
    source_training_mse: float
    rows: tuple[tuple[str, ...], ...]
    win_rate_vs_no_retrain: float
    win_rate_vs_last_layer: float

    def to_csv(self) -> str:
        return results_csv([list(r) for r in self.rows])

    def summary_json(self) -> str:
        return canonical_json(
            {
                "num_tasks": self.config.num_tasks,
                "context_size": self.config.context_size,
                "seed": self.config.seed,
                "source_training_mse": self.source_training_mse,
                "win_rate_vs_no_retrain": self.win_rate_vs_no_retrain,
                "win_rate_vs_last_layer": self.win_rate_vs_last_layer,
            }
        )


def sinusoid_experiment(cfg: SinusoidExperimentConfig = SinusoidExperimentConfig()):
    """Head-to-head on fresh sinusoid tasks: adapted GP vs both baselines.

    Context points are spread across the input range (quantile split), the
    GP regresses the raw targets under a zero prior mean, and each task
    picks its noise level by leave-one-out error over a decade grid
    anchored at the source network's training MSE. The last-layer baseline
    gets the source's full training budget, so each method sees the same
    information.
    """
    source, source_task, source_opt = train_sinusoid_source(cfg)
    source_mse = float(mean_squared_error(forward(source, source_task.x), source_task.y))
    spec = SinusoidTaskSpec(points_per_task=cfg.points_per_task, seed=cfg.seed + 1)
    raw_tasks = sample_sinusoid_tasks(spec, cfg.num_tasks)
    pairs = [stratified_split(t, cfg.context_size) for t in raw_tasks]
    grid = decade_grid(
        source_mse, cfg.noise_grid_decades, "experiment.noise_grid_decades", "the source training MSE"
    )
    run = run_adaptation(source, pairs, AdaptConfig(center_on_network=False, noise_grid=grid))
    for record in run.tasks:
        if record.status == "failed":
            raise FitError(f"task {record.task_id} did not adapt: {record.error}")
    baselines = score_baselines(source, pairs, source_opt, source_mse)
    scores = [(record.metrics, *pair) for record, pair in zip(run.tasks, baselines)]
    rows = [
        _result_row(task_id, method, cfg.context_size, m)
        for task_id, metrics in enumerate(scores)
        for method, m in zip(_METHODS, metrics)
    ]
    ntk_wins_plain = sum(ntk.mse < plain.mse for ntk, plain, _ in scores)
    ntk_wins_head = sum(ntk.mse < head.mse for ntk, _, head in scores)
    return SinusoidExperiment(
        config=cfg,
        source_fingerprint=source.fingerprint(),
        source_training_mse=source_mse,
        rows=tuple(tuple(r) for r in rows),
        win_rate_vs_no_retrain=ntk_wins_plain / cfg.num_tasks,
        win_rate_vs_last_layer=ntk_wins_head / cfg.num_tasks,
    )
