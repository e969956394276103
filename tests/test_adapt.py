"""Adaptation workflow: task generators, per-task GP refits, baselines.

The leave-one-out noise selector is checked against a brute-force oracle
that actually refits the GP n times. Training-based pieces (the source
network, the last-layer baseline) run on deliberately small problems;
the full-size experiment lives in the acceptance suite.
"""

import logging
import math
import re

import numpy as np
import pytest

from tangentgp.adapt import (
    RESULT_COLUMNS,
    AdaptConfig,
    Metrics,
    SinusoidExperimentConfig,
    SinusoidTaskSpec,
    _result_row,
    adapt_task,
    gaussian_nll,
    mean_squared_error,
    refit_last_layer,
    results_csv,
    run_adaptation,
    sample_sinusoid_tasks,
    score_baselines,
    select_noise_by_loo,
    sinusoid_experiment,
    sinusoid_targets,
    stratified_split,
)
import tangentgp.adapt as adapt_module
import tangentgp.gp as gp_module
import tangentgp.net as net_module
from tangentgp.errors import (
    ContractViolationError,
    NumericBreakdownError,
    TrainingDivergenceError,
)
from tangentgp.gp import GramFactor, _eigh_psd, factor_gram, kernel_matrix, loo_scores, predict
from tangentgp.net import (
    JacobianOperator,
    MlpArchitecture,
    MlpNetwork,
    OptimizerConfig,
    TaskDataset,
    _forward_trace,
    forward,
    init_network,
    train,
)

_sources = {}


def spy_systems(monkeypatch):
    """The GP dual systems that fits run, in call order."""
    ran = []
    for side in ("function", "parameter"):
        fit = getattr(gp_module, f"fit_{side}_space")

        def spy(*args, _side=side, _fit=fit, **kwargs):
            ran.append(_side)
            return _fit(*args, **kwargs)

        monkeypatch.setattr(gp_module, f"fit_{side}_space", spy)
    return ran


def trained_source(seed=0):
    """A small tanh regression net fit on one noisy sine; cached per seed."""
    if seed not in _sources:
        rng = np.random.default_rng(seed)
        x = rng.uniform(-4.0, 4.0, size=(40, 1))
        y = 2.0 * np.sin(x) + rng.normal(0.0, 0.1, size=x.shape)
        data = TaskDataset(x, y, noise_variance=0.01)
        net = init_network(MlpArchitecture(1, (16, 16), 1, activation="tanh"), seed=seed)
        opt = OptimizerConfig(
            optimizer="adam",
            learning_rate=5e-3,
            epochs=400,
            batch_size=8,
            loss="mse",
            seed=seed,
        )
        _sources[seed] = (train(net, data, opt).network, data, opt)
    return _sources[seed]


class TestMetricsHelpers:
    def test_gaussian_nll_standard_normal_at_mode(self):
        nll = gaussian_nll(np.zeros((3, 1)), np.ones((3, 1)), np.zeros((3, 1)))
        assert math.isclose(nll, 0.5 * math.log(2.0 * math.pi), rel_tol=1e-12)

    def test_gaussian_nll_rejects_nonpositive_variance(self):
        with pytest.raises(ContractViolationError, match="positive"):
            gaussian_nll(np.zeros((2, 1)), np.array([[1.0], [0.0]]), np.zeros((2, 1)))

    def test_gaussian_nll_rejects_nan_variance(self):
        # NaN compares false both ways; a NaN variance must not pass as positive.
        with pytest.raises(ContractViolationError, match="positive"):
            gaussian_nll(np.zeros((2, 1)), np.array([[1.0], [np.nan]]), np.zeros((2, 1)))

    @pytest.mark.parametrize("metric", ["mse", "nll"])
    def test_stack_equals_per_slice_calls(self, metric):
        # A (T, m, o) stack reduces over its last two axes: each task's
        # metric is bitwise the 2-D call on its slice.
        rng = np.random.default_rng(29)
        t, m, o = 5, 37, 3
        pred, targets = rng.standard_normal((2, t, m, o))
        variance = rng.uniform(0.1, 2.0, size=(t, m, o))
        if metric == "mse":
            values = mean_squared_error(pred, targets)
            per_slice = [mean_squared_error(pred[k], targets[k]) for k in range(t)]
        else:
            values = gaussian_nll(pred, variance, targets)
            per_slice = [gaussian_nll(pred[k], variance[k], targets[k]) for k in range(t)]
        assert values.shape == (t,)
        assert [values[k] for k in range(t)] == per_slice

    def test_results_csv_layout(self):
        csv = results_csv([["0", "finite-ntk", "10", "1.5", "2.5"]])
        lines = csv.splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert lines[1] == "0,finite-ntk,10,1.5,2.5"


class TestSinusoidTasks:
    def test_noise_free_generator_at_origin(self):
        assert sinusoid_targets(1.0, 1.0, 0.0, np.zeros((1, 1))) == 0.0

    def test_amplitude_bounds_over_seeded_tasks(self):
        # The generator stores noise variance 0.01*A, so A is recoverable.
        tasks = sample_sinusoid_tasks(SinusoidTaskSpec(points_per_task=30, seed=7), 100)
        for task in tasks:
            amplitude = 100.0 * task.noise_variance
            assert 0.1 <= amplitude <= 5.0
            assert np.all(np.abs(task.x) <= 5.0)
            bound = amplitude + 5.0 * math.sqrt(0.01 * amplitude)
            assert np.all(np.abs(task.y) <= bound)

    def test_fixed_seed_reproducibility(self):
        a = sample_sinusoid_tasks(SinusoidTaskSpec(seed=3), 4)
        b = sample_sinusoid_tasks(SinusoidTaskSpec(seed=3), 4)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.x, tb.x)
            assert np.array_equal(ta.y, tb.y)

    def test_rejects_empty_request(self):
        with pytest.raises(ContractViolationError, match="num_tasks"):
            sample_sinusoid_tasks(SinusoidTaskSpec(), 0)

    def test_spec_validation(self):
        with pytest.raises(ContractViolationError, match="at least one point"):
            SinusoidTaskSpec(points_per_task=0)
        with pytest.raises(ContractViolationError, match="empty"):
            SinusoidTaskSpec(x_low=2.0, x_high=-2.0)


class TestSplits:
    def task(self):
        rng = np.random.default_rng(0)
        return TaskDataset(rng.normal(size=(12, 1)), rng.normal(size=(12, 1)), 0.5)

    def test_full_context_swallows_eval(self):
        context, eval_set = stratified_split(self.task(), 12)
        assert eval_set is None and context.x.shape[0] == 12

    def test_split_size_validation(self):
        for bad in (0, 13):
            with pytest.raises(ContractViolationError, match="context size"):
                stratified_split(self.task(), bad)

    def test_stratified_picks_quantile_centers(self):
        x = np.arange(10.0)[:, None]
        data = TaskDataset(x, x.copy(), 1.0)
        context, eval_set = stratified_split(data, 2)
        # Middle of each half of the sorted inputs.
        assert context.x.ravel().tolist() == [2.0, 7.0]
        assert eval_set.x.shape[0] == 8
        merged = np.sort(np.concatenate([context.x, eval_set.x]).ravel())
        assert np.array_equal(merged, x.ravel())

    def test_stratified_covers_range_better_than_clustering(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(-5.0, 5.0, size=(50, 1)), axis=0)
        data = TaskDataset(x, np.zeros_like(x), 1.0)
        context, _ = stratified_split(data, 10)
        gaps = np.diff(np.sort(context.x.ravel()))
        assert gaps.max() < 10.0 / 10 * 2.5  # no gap much wider than one stratum


class TestNoiseSelection:
    def brute_loo(self, kernel, y, sigma2):
        n = y.size
        errs = []
        for i in range(n):
            keep = [j for j in range(n) if j != i]
            gram = kernel[np.ix_(keep, keep)] + sigma2 * np.eye(n - 1)
            alpha = np.linalg.solve(gram, y[keep])
            errs.append(kernel[i, keep] @ alpha - y[i])
        return float(np.mean(np.square(errs)))

    def factor(self, kernel):
        """A function-side factor of ``kernel`` over an operator with as many outputs."""
        x = np.linspace(-1.0, 1.0, len(kernel))[:, None]
        jac = JacobianOperator(init_network(MlpArchitecture(1, (2,), 1), seed=0), x)
        return GramFactor("function", *_eigh_psd(kernel), jac)

    def test_matches_brute_force_refits(self):
        rng = np.random.default_rng(11)
        root = rng.normal(size=(7, 4))
        kernel = root @ root.T
        y = rng.normal(size=7)
        grid = (0.01, 0.1, 1.0, 10.0)
        scores = [self.brute_loo(kernel, y, s2) for s2 in grid]
        assert select_noise_by_loo(self.factor(kernel), y, grid) == grid[int(np.argmin(scores))]

    def test_ties_resolve_to_first_entry(self):
        # With an identity kernel the LOO residual is y itself for every
        # noise level, so all candidates tie.
        y = np.random.default_rng(0).normal(size=5)
        assert select_noise_by_loo(self.factor(np.eye(5)), y, (0.5, 1.0, 2.0)) == 0.5

    def test_input_validation(self):
        factor = self.factor(np.eye(2))
        with pytest.raises(ContractViolationError, match="positive"):
            select_noise_by_loo(factor, np.ones(2), ())
        with pytest.raises(ContractViolationError, match="positive"):
            select_noise_by_loo(factor, np.ones(2), (1.0, 0.0))
        with pytest.raises(ContractViolationError, match="positive finite variances"):
            select_noise_by_loo(factor, np.ones(2), (1.0, np.inf))
        with pytest.raises(ContractViolationError, match="targets"):
            select_noise_by_loo(factor, np.ones(3), (1.0,))

    def test_stacked_factor_picks_each_tasks_own_variance(self):
        # Four same-size kernel-side tasks (6 outputs against p = 25) in one
        # stacked factor, as the stacked pass builds it, against each
        # task's own factor.
        net = init_network(MlpArchitecture(1, (8,), 1), seed=3)
        rng = np.random.default_rng(8)
        xs = [rng.uniform(-2.0, 2.0, size=(6, 1)) for _ in range(4)]
        noise = (0.01, 0.3, 1.0, 3.0)
        resid = np.stack([np.sin(x).ravel() + s * rng.standard_normal(6) for s, x in zip(noise, xs)])
        grid = tuple(10.0**d for d in range(-4, 2))
        jac = JacobianOperator(net, np.concatenate(xs))
        kernels = gp_module._task_kernels(jac, None, len(xs))[0]
        stacked = GramFactor("function", *_eigh_psd(kernels), jac)
        picks = select_noise_by_loo(stacked, resid, grid)
        own = [select_noise_by_loo(factor_gram(net, x), r, grid) for x, r in zip(xs, resid)]
        assert picks.tolist() == own
        assert len(set(own)) > 1
        with pytest.raises(ContractViolationError, match="24 rows but there are 18 targets"):
            select_noise_by_loo(stacked, resid[1:], grid)

    def test_nan_score_never_wins(self, monkeypatch):
        scores = np.array([[np.nan, 2.0, 1.0, np.nan], [3.0, np.nan, 3.0, 5.0]])
        monkeypatch.setattr(adapt_module, "loo_scores", lambda factor, resid, grid: scores)
        grid = (0.1, 0.2, 0.3, 0.4)
        assert select_noise_by_loo(self.factor(np.eye(4)), np.zeros((2, 2)), grid).tolist() == [0.3, 0.1]

    def test_scores_match_inverse_formula_on_both_gram_sides(self):
        grid = (1e-3, 1e-2, 0.1, 1.0, 10.0)
        for n in (10, 60):  # p = 37: the kernel side, then the p side
            rng = np.random.default_rng(n)
            net = init_network(MlpArchitecture(1, (8, 2), 1), seed=n)
            x = rng.uniform(-3.0, 3.0, size=(n, 1))
            y = np.sin(x).ravel() + 0.1 * rng.standard_normal(n)
            factor = factor_gram(net, x)
            assert factor.side == ("function" if n == 10 else "parameter")
            kernel = kernel_matrix(net, x)
            reference = []
            for sigma2 in grid:
                inv = np.linalg.inv(kernel + sigma2 * np.eye(n))
                reference.append(np.mean(((inv @ y) / np.diag(inv)) ** 2))
            np.testing.assert_allclose(loo_scores(factor, y, grid), reference, rtol=1e-10)

    def test_config_rejects_unknown_mean_kind(self):
        for center in (True, False):
            with pytest.raises(ContractViolationError, match="'jacobain_mean'"):
                AdaptConfig(mean_kind="jacobain_mean", center_on_network=center)

    def test_config_rejects_fixed_noise_plus_grid(self):
        with pytest.raises(ContractViolationError, match="not both"):
            AdaptConfig(noise_variance=0.1, noise_grid=(0.1, 1.0))
        with pytest.raises(ContractViolationError, match="positive"):
            AdaptConfig(noise_grid=(0.0,))
        for bad in (math.inf, math.nan):
            with pytest.raises(ContractViolationError, match="override must be positive and finite"):
                AdaptConfig(noise_variance=bad)
            with pytest.raises(ContractViolationError, match="positive finite variances"):
                AdaptConfig(noise_grid=(1.0, bad))


class TestAdaptTask:
    def test_refitting_source_data_cannot_hurt(self):
        source, data, _ = trained_source()
        own_mse = mean_squared_error(forward(source, data.x), data.y)
        _, metrics = adapt_task(source, data, data, AdaptConfig())
        assert metrics.mse <= own_mse + 1e-6

    def test_interpolates_context_at_tiny_noise(self):
        source, _, _ = trained_source()
        x = np.linspace(-3.5, 3.5, 8)[:, None]
        y = 1.3 * np.sin(2.0 * x + 0.4)
        context = TaskDataset(x, y, noise_variance=1.0)
        cfg = AdaptConfig(center_on_network=False, noise_variance=1e-8)
        posterior, _ = adapt_task(source, context, None, cfg)
        mean, _ = predict(posterior, source, x)
        assert np.max(np.abs(mean - y)) < 1e-3

    def test_source_parameters_untouched(self):
        source, data, _ = trained_source()
        before = source.fingerprint()
        adapt_task(source, data, data, AdaptConfig())
        assert source.fingerprint() == before

    def test_noise_grid_selection_runs_inside_fit(self):
        source, _, _ = trained_source()
        x = np.linspace(-3.0, 3.0, 6)[:, None]
        context = TaskDataset(x, np.sin(x), noise_variance=1.0)
        grid = (1e-4, 1e-2, 1.0)
        posterior, _ = adapt_task(
            source, context, None, AdaptConfig(center_on_network=False, noise_grid=grid)
        )
        assert posterior.noise_variance == select_noise_by_loo(factor_gram(source, x), context.y, grid)

    def test_noise_grid_scores_the_residual_that_is_fitted(self):
        # On this task LOO of the raw targets picks 0.1, LOO of the
        # residual y - mu(X) the fit regresses picks 0.01.
        source = init_network(MlpArchitecture(1, (16,), 1), seed=4)
        task = sample_sinusoid_tasks(SinusoidTaskSpec(points_per_task=12, seed=4), 1)[0]
        grid = tuple(10.0**d for d in range(-4, 2))
        factor = factor_gram(source, task.x)
        jac = JacobianOperator(source, task.x)
        linear = (jac.dense().T @ source.params)[:, None]
        assert select_noise_by_loo(factor, task.y, grid) == 0.1
        for kind, mu in (("jacobian_mean", linear), ("linearized_nn", jac.outputs + linear)):
            cfg = AdaptConfig(mean_kind=kind, center_on_network=False, noise_grid=grid)
            posterior, _ = adapt_task(source, task, None, cfg)
            assert posterior.noise_variance == select_noise_by_loo(factor, task.y - mu, grid)
            assert posterior.noise_variance == 0.01

    def test_noise_grid_task_runs_one_eigendecomposition(self, monkeypatch):
        source, _, _ = trained_source()
        p = source.architecture.parameter_count
        calls = {"eigh": 0, "cg": 0, "lanczos": 0}

        def spy(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
        monkeypatch.setattr(gp_module, "cg_solve", spy("cg", gp_module.cg_solve))
        monkeypatch.setattr(
            gp_module, "lanczos_factorize", spy("lanczos", gp_module.lanczos_factorize)
        )
        ran = spy_systems(monkeypatch)
        grid = (1e-4, 1e-2, 1.0)
        for n in (12, p + 20):
            x = np.linspace(-3.0, 3.0, n)[:, None]
            context = TaskDataset(x, np.sin(x), noise_variance=1.0)
            adapt_task(
                source, context, context, AdaptConfig(center_on_network=False, noise_grid=grid)
            )
        # The kernel-side task is the one-task stacked pass, which calls
        # neither fit; the p-side task fits in parameter space.
        assert ran == ["parameter"]
        assert calls == {"eigh": 2, "cg": 0, "lanczos": 0}
        # Over the exact-fit limit the grid's factor still serves the fit.
        monkeypatch.setattr(gp_module, "EXACT_FIT_LIMIT", 0)
        adapt_task(source, context, None, AdaptConfig(noise_grid=grid))
        assert calls == {"eigh": 3, "cg": 0, "lanczos": 0}

    def test_noise_grid_task_traces_each_input_set_once(self, monkeypatch):
        # One trace of the context serves centering, the noise search and
        # the fit. On the kernel side one trace of the eval set serves the
        # mean, the variance and the centering. On the p side the eval set
        # is traced once for predict and once for centering.
        source, _, _ = trained_source()
        p = source.architecture.parameter_count
        traces = []
        original = net_module._forward_trace

        def spy(network, x):
            traces.append(len(x))
            return original(network, x)

        monkeypatch.setattr(net_module, "_forward_trace", spy)
        grid = (1e-4, 1e-2, 1.0)
        for n, want in ((12, [12, 7]), (p + 20, [p + 20, 7, 7])):
            x = np.linspace(-3.0, 3.0, n)[:, None]
            context = TaskDataset(x, np.sin(x), noise_variance=1.0)
            eval_set = TaskDataset(x[:7] + 0.1, np.sin(x[:7]), noise_variance=1.0)
            traces.clear()
            adapt_task(source, context, eval_set, AdaptConfig(noise_grid=grid))
            assert traces == want

    def test_p_side_noise_grid_needs_no_kernel_matrix(self, monkeypatch):
        # n*o = 10001 would need a kernel over the dense cap; p = 25 does not.
        ran = spy_systems(monkeypatch)
        source = init_network(MlpArchitecture(1, (8,), 1), seed=0)
        x = np.linspace(-3.0, 3.0, 10001)[:, None]
        context = TaskDataset(x, np.sin(x), noise_variance=1.0)
        _, metrics = adapt_task(source, context, context, AdaptConfig(noise_grid=(1e-3, 1e-1)))
        assert ran == ["parameter"] and np.isfinite(metrics.mse)


class TestRunAdaptation:
    def tasks(self, n=3):
        source, _, _ = trained_source()
        raw = sample_sinusoid_tasks(SinusoidTaskSpec(points_per_task=16, seed=9), n)
        return source, [stratified_split(t, 6) for t in raw]

    def test_statuses_and_fingerprint(self):
        source, pairs = self.tasks()
        run = run_adaptation(source, pairs)
        assert run.source_fingerprint == source.fingerprint()
        assert all(t.status == "ok" for t in run.tasks)
        assert all(t.metrics is not None for t in run.tasks)

    def test_no_eval_task(self):
        source, pairs = self.tasks()
        context, _ = pairs[0]
        run = run_adaptation(source, [(context, None)])
        assert run.tasks[0].status == "no-eval"
        assert run.tasks[0].posterior is not None
        assert run.tasks[0].metrics is None

    def test_failure_keeps_partial_results(self):
        source, pairs = self.tasks()
        bad_context = TaskDataset(pairs[0][0].x, np.zeros((6, 2)), 0.1)
        mixed = [pairs[0], (bad_context, pairs[1][1]), pairs[2]]
        run = run_adaptation(source, mixed)
        statuses = [t.status for t in run.tasks]
        assert statuses == ["ok", "failed", "ok"]
        failures = [t for t in run.tasks if t.status == "failed"]
        assert len(failures) == 1
        assert "channels" in failures[0].error

    @pytest.mark.parametrize("side", ["context", "eval"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_target_width_fails_only_its_task(self, side, width):
        # A two-output net regresses two-wide targets; one or three columns
        # on either set are refused before anything broadcasts against them.
        net = init_network(MlpArchitecture(1, (8,), 2), seed=0)
        rng = np.random.default_rng(41)
        pairs = [sine_pair(rng, 5, 8, outputs=2) for _ in range(3)]
        bad = dict(zip(("context", "eval"), pairs[1]))
        data = bad[side]
        bad[side] = TaskDataset(data.x, np.tile(data.y[:, :1], (1, width)), data.noise_variance)
        message = f"{side} targets have {width} channels but the regression view has 2"
        with pytest.raises(ContractViolationError, match=message) as alone:
            adapt_task(net, bad["context"], bad["eval"])
        run = run_adaptation(net, [pairs[0], (bad["context"], bad["eval"]), pairs[2]])
        assert [t.status for t in run.tasks] == ["ok", "failed", "ok"]
        assert run.tasks[1].error == str(alone.value)

    def test_metric_tables_deterministic(self):
        source, pairs = self.tasks()

        def rows():
            return [
                _result_row(t.task_id, "finite-ntk", pairs[t.task_id][0].n, t.metrics)
                for t in run_adaptation(source, pairs).tasks
            ]

        rows_a, rows_b = rows(), rows()
        assert rows_a == rows_b
        assert rows_a[0][1] == "finite-ntk" and rows_a[0][2] == str(pairs[0][0].n)


def dense_adaptation(source, context, eval_set, cfg):
    """One task's closed form from the dense Jacobian: (mean cache, noise, Metrics or None).

    The noise is picked by brute-force leave-one-out over explicit inverses.
    """
    arch = source.architecture
    channels = tuple(range(0, 2 * arch.output_dim, 2)) if arch.heteroscedastic else None

    def prior_mean(op, dense):
        linear = (dense.T @ source.params).reshape(op.outputs.shape)
        return {"zero": 0.0 * linear, "jacobian_mean": linear, "linearized_nn": op.outputs + linear}[
            cfg.mean_kind
        ]

    jac = JacobianOperator(source, context.x, channels)
    dense = jac.dense()
    targets = context.y - jac.outputs if cfg.center_on_network else context.y
    resid = (targets - prior_mean(jac, dense)).ravel()
    kernel = dense.T @ dense
    eye = np.eye(len(resid))
    if cfg.noise_grid is not None:
        scores = []
        for sigma2 in cfg.noise_grid:
            inv = np.linalg.inv(kernel + sigma2 * eye)
            scores.append(np.mean(((inv @ resid) / np.diag(inv)) ** 2))
        sigma2 = cfg.noise_grid[int(np.argmin(scores))]
    else:
        sigma2 = cfg.noise_variance if cfg.noise_variance is not None else context.noise_variance
    gram_inv = np.linalg.inv(kernel + sigma2 * eye)
    mean_cache = dense @ (gram_inv @ resid)
    if eval_set is None:
        return mean_cache, sigma2, None
    query = JacobianOperator(source, eval_set.x, channels)
    dense_q = query.dense()
    mean = (dense_q.T @ mean_cache).reshape(query.outputs.shape) + prior_mean(query, dense_q)
    if cfg.center_on_network:
        mean = mean + query.outputs
    # k(x, x) - k_x'(K + s I)^-1 k_x = s j'(J J' + s I)^-1 j, with no cancellation.
    precision = dense @ dense.T + sigma2 * np.eye(len(dense))
    var = sigma2 * np.einsum("pj,pj->j", dense_q, np.linalg.solve(precision, dense_q))
    var = var.reshape(mean.shape)
    metrics = Metrics(
        mse=mean_squared_error(mean, eval_set.y),
        nll=gaussian_nll(mean, var + sigma2, eval_set.y),
    )
    return mean_cache, sigma2, metrics


def assert_matches_dense(source, pairs, cfg, records):
    assert len(records) == len(pairs)
    for (context, eval_set), record in zip(pairs, records):
        mean_cache, sigma2, metrics = dense_adaptation(source, context, eval_set, cfg)
        posterior = record.posterior
        assert posterior.noise_variance == sigma2
        assert posterior.inputs is not None  # kernel form
        scale = float(np.max(np.abs(mean_cache)))
        np.testing.assert_allclose(posterior.mean_cache, mean_cache, rtol=1e-10, atol=1e-10 * scale)
        if metrics is None:
            assert record.status == "no-eval" and record.metrics is None
        else:
            assert record.status == "ok"
            assert math.isclose(record.metrics.mse, metrics.mse, rel_tol=1e-10)
            # The NLL can lie near 0, so it is compared to 1e-10 nats as well.
            assert math.isclose(record.metrics.nll, metrics.nll, rel_tol=1e-10, abs_tol=1e-10)


def sine_pair(rng, n, m, outputs=1, noise=0.05):
    """A (context, eval) pair of ``outputs``-channel sines; m = 0 gives no eval set."""
    x = rng.uniform(-3.0, 3.0, size=(n + m, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=outputs)
    y = np.sin(1.3 * x + phase) + rng.normal(0.0, 0.1, size=(n + m, outputs))
    context = TaskDataset(x[:n], y[:n], noise_variance=noise * rng.uniform(0.5, 2.0))
    return context, (TaskDataset(x[n:], y[n:], noise_variance=noise) if m else None)


class TestStackedAdaptation:
    """``run_adaptation`` against per-task dense closed forms and its own per-task path."""

    GRID = (1e-2, 1e-1, 1.0)

    def test_mixed_sizes_against_dense_closed_forms(self):
        # Two groups of three (6 and 9 context points), a singleton, and a
        # no-eval task in a group of its own.
        source, _, _ = trained_source()
        rng = np.random.default_rng(31)
        sizes = [(6, 12), (9, 12), (6, 12), (4, 5), (9, 12), (6, 12), (9, 12), (6, 0)]
        pairs = [sine_pair(rng, n, m) for n, m in sizes]
        for cfg in (AdaptConfig(noise_grid=self.GRID), AdaptConfig(center_on_network=False)):
            assert_matches_dense(source, pairs, cfg, run_adaptation(source, pairs, cfg).tasks)

    def test_every_mean_kind_and_fixed_noise(self):
        source, _, _ = trained_source()
        rng = np.random.default_rng(32)
        pairs = [sine_pair(rng, 7, 10) for _ in range(3)]
        for kind in ("zero", "jacobian_mean", "linearized_nn"):
            for noise in ({"noise_grid": self.GRID}, {"noise_variance": 0.03}, {}):
                cfg = AdaptConfig(mean_kind=kind, center_on_network=False, **noise)
                assert_matches_dense(source, pairs, cfg, run_adaptation(source, pairs, cfg).tasks)

    def test_two_outputs_and_a_heteroscedastic_net(self):
        rng = np.random.default_rng(33)
        two = init_network(MlpArchitecture(1, (12, 8), 2), seed=3)
        pairs = [sine_pair(rng, 5, 8, outputs=2) for _ in range(3)]
        cfg = AdaptConfig(noise_grid=self.GRID)
        assert_matches_dense(two, pairs, cfg, run_adaptation(two, pairs, cfg).tasks)
        # channels=(0,): the mean head of a (mean, scale) output pair.
        hetero = init_network(MlpArchitecture(1, (12,), 1, heteroscedastic=True), seed=4)
        pairs = [sine_pair(rng, 6, 9) for _ in range(3)]
        run = run_adaptation(hetero, pairs, cfg)
        assert hetero.architecture.regression_channels == (0,)
        assert_matches_dense(hetero, pairs, cfg, run.tasks)

    def test_patched_cap_splits_a_group(self, monkeypatch, caplog):
        source, _, _ = trained_source()
        rng = np.random.default_rng(34)
        pairs = [sine_pair(rng, 6, 10) for _ in range(5)]
        cfg = AdaptConfig(noise_grid=self.GRID)
        widest = max(source.architecture.layer_dims)
        # Room for two tasks' largest arrays per stack: 2, 2 and then 1.
        monkeypatch.setattr(adapt_module, "DENSE_JACOBIAN_CAP", 2 * 10 * widest)
        with caplog.at_level(logging.DEBUG, logger="tangentgp"):
            run = run_adaptation(source, pairs, cfg)
        lines = [r.getMessage().split(" in ")[0] for r in caplog.records]
        assert lines == ["adapted 2 tasks of 6 context points"] * 2 + ["task 4: ok"]
        assert_matches_dense(source, pairs, cfg, run.tasks)

    def test_tasks_over_the_patched_limit_fit_matrix_free(self, monkeypatch, caplog):
        # gp.EXACT_FIT_LIMIT is the one exact-fit rule: 6-point tasks above
        # it leave the stack for a matrix-free fit; 4-point tasks stay.
        source, _, _ = trained_source()
        rng = np.random.default_rng(39)
        pairs = [sine_pair(rng, n, 10) for n in (6, 4, 6, 4)]
        monkeypatch.setattr(gp_module, "EXACT_FIT_LIMIT", 5)
        calls = {"cg": 0, "lanczos": 0}
        for key, name in (("cg", "cg_solve"), ("lanczos", "lanczos_factorize")):

            def spy(*args, _key=key, _fn=getattr(gp_module, name), **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(gp_module, name, spy)
        ran = spy_systems(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="tangentgp"):
            run = run_adaptation(source, pairs)
        assert ran == ["function", "function"]
        assert calls == {"cg": 2, "lanczos": 2}
        lines = [r.getMessage().split(" in ")[0] for r in caplog.records]
        assert lines == ["task 0: ok", "task 2: ok", "adapted 2 tasks of 4 context points"]
        assert all(t.status == "ok" for t in run.tasks)

    def test_bad_task_in_a_group_keeps_its_message(self):
        source, _, _ = trained_source()
        rng = np.random.default_rng(36)
        pairs = [sine_pair(rng, 6, 10) for _ in range(3)]
        bad = TaskDataset(pairs[1][0].x, np.zeros((6, 2)), 0.1)
        with pytest.raises(ContractViolationError) as alone:
            adapt_task(source, bad, pairs[1][1])
        mixed = [pairs[0], (bad, pairs[1][1]), pairs[2]]
        run = run_adaptation(source, mixed)
        assert [t.status for t in run.tasks] == ["ok", "failed", "ok"]
        assert run.tasks[1].error == str(alone.value)
        good = [pairs[0], pairs[2]]
        assert_matches_dense(source, good, AdaptConfig(), run.tasks[::2])

    def test_failing_batched_eigh_falls_back_per_task(self, monkeypatch, caplog):
        source, _, _ = trained_source()
        rng = np.random.default_rng(37)
        pairs = [sine_pair(rng, 6, 10) for _ in range(3)]
        cfg = AdaptConfig(noise_grid=self.GRID)
        shapes = []
        original = np.linalg.eigh

        def eigh(a):
            shapes.append(a.shape)
            if a.ndim == 3 and a.shape[0] > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with caplog.at_level(logging.DEBUG, logger="tangentgp"):
            run = run_adaptation(source, pairs, cfg)
        assert shapes == [(3, 6, 6)] + [(1, 6, 6)] * 3
        lines = [r.getMessage().split(" in ")[0] for r in caplog.records]
        assert lines == ["task 0: ok", "task 1: ok", "task 2: ok"]
        monkeypatch.undo()
        assert_matches_dense(source, pairs, cfg, run.tasks)

    def test_a_group_traces_each_input_set_once(self, monkeypatch):
        source, _, _ = trained_source()
        rng = np.random.default_rng(38)
        pairs = [sine_pair(rng, 6, 10) for _ in range(5)]
        traces = []
        original = net_module._forward_trace

        def spy(network, x):
            traces.append(len(x))
            return original(network, x)

        monkeypatch.setattr(net_module, "_forward_trace", spy)
        run = run_adaptation(source, pairs, AdaptConfig(noise_grid=self.GRID))
        assert traces == [5 * 6, 5 * 10]
        assert all(t.status == "ok" for t in run.tasks)

    def test_overflowing_gram_is_a_recorded_breakdown(self):
        # At parameters 1e200 a relu net's Gram overflows to inf, and its
        # eigendecomposition would not converge.
        arch = MlpArchitecture(1, (8,), 1, activation="relu")
        net = MlpNetwork(arch, np.full(arch.parameter_count, 1e200))
        x = np.linspace(0.5, 1.5, 5)[:, None]
        task = (TaskDataset(x, np.sin(x), 0.1), TaskDataset(x + 0.1, np.sin(x), 0.1))
        cfg = AdaptConfig(center_on_network=False)
        with np.errstate(over="ignore", invalid="ignore"):
            run = run_adaptation(net, [task, task], cfg)
            with pytest.raises(NumericBreakdownError, match="5 x 5 Gram matrix"):
                adapt_task(net, *task, cfg)
        assert [t.status for t in run.tasks] == ["failed", "failed"]
        assert all(t.error == "the 5 x 5 Gram matrix has non-finite entries" for t in run.tasks)


class TestBaselines:
    def test_no_retrain_equals_source_training_mse(self):
        source, data, opt = trained_source()
        ((metrics, _),) = score_baselines(source, [(data, data)], opt)
        assert metrics.mse == mean_squared_error(forward(source, data.x), data.y)

    def test_no_retrain_constant_zero_network(self):
        arch = MlpArchitecture(1, (4,), 1, activation="tanh")
        net = MlpNetwork(arch, np.zeros(arch.parameter_count))
        data = TaskDataset(np.ones((5, 1)), np.zeros((5, 1)), 1.0)
        ((metrics, _),) = score_baselines(net, [(data, data)], OptimizerConfig(epochs=1))
        assert metrics.mse == 0.0

    def test_refit_freezes_hidden_features(self):
        source, data, opt = trained_source()
        (refit,) = refit_last_layer(source, [data], opt)
        probe = np.linspace(-2.0, 2.0, 7)[:, None]
        _, before, _ = _forward_trace(source, probe)
        _, after, _ = _forward_trace(refit, probe)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)
        assert not np.array_equal(forward(source, probe), forward(refit, probe))

    def test_last_layer_on_own_data_cannot_hurt(self):
        source, data, opt = trained_source()
        ((plain, head),) = score_baselines(source, [(data, data)], opt)
        assert head.mse <= plain.mse + 1e-8

    def test_last_layer_matches_ridge_oracle(self):
        # Needs a well-conditioned head problem, so the hidden layer is
        # handcrafted with spread slopes and biases; a trained or
        # default-initialized 1-D tanh net has nearly collinear features
        # and no unique least-squares solution to converge to.
        _, data, _ = trained_source()
        arch = MlpArchitecture(1, (6,), 1, activation="tanh")
        params = np.zeros(arch.parameter_count)
        (w1, b1, _, _), (w2, b2, _, _) = arch.layer_slices()
        params[w1] = [0.6, 1.2, 2.0, -0.8, -1.5, 0.3]
        params[b1] = [-2.0, -1.0, 0.0, 0.5, 1.5, 2.5]
        params[w2] = [0.4, -0.3, 0.2, 0.1, -0.5, 0.25]
        params[b2] = [0.1]
        net = MlpNetwork(arch, params)
        long_opt = OptimizerConfig(
            optimizer="sgd-momentum",
            learning_rate=0.2,
            epochs=20000,
            batch_size=data.x.shape[0],
            loss="mse",
            seed=0,
        )
        (refit,) = refit_last_layer(net, [data], long_opt)
        features = _forward_trace(net, data.x)[1][-1]
        design = np.hstack([features, np.ones((features.shape[0], 1))])
        coef = np.linalg.solve(
            design.T @ design + 1e-8 * np.eye(design.shape[1]), design.T @ data.y
        )
        np.testing.assert_allclose(forward(refit, data.x), design @ coef, atol=1e-3)


def head_view_refit(source, context, cfg):
    """The reference refit: ``net.train`` on one context's one-layer head view.

    The final layer is an affine network over the last hidden features;
    train that network alone and splice its parameters back.
    """
    arch = source.architecture
    w_slice, b_slice, fan_in, _ = arch.layer_slices()[-1]
    head_arch = MlpArchitecture(
        fan_in, (), arch.output_dim, activation="identity", heteroscedastic=arch.heteroscedastic
    )
    head = MlpNetwork(head_arch, np.concatenate([source.params[w_slice], source.params[b_slice]]))
    features = _forward_trace(source, context.x)[1][-1]
    fitted = train(head, TaskDataset(features, context.y, context.noise_variance), cfg).network
    params = source.params.copy()
    params[w_slice.start : b_slice.stop] = fitted.params
    return params


def head_problem(loss, sizes, seed=5):
    """A source net whose head suits ``loss``, plus one context per size."""
    rng = np.random.default_rng(seed)
    outputs = 3 if loss == "categorical-ce" else 2
    arch = MlpArchitecture(
        2, (9, 6), outputs, activation="tanh", heteroscedastic=loss == "heteroscedastic-gaussian"
    )
    source = init_network(arch, seed=seed)
    contexts = []
    for n in sizes:
        x = rng.uniform(-2.0, 2.0, size=(n, 2))
        if loss == "categorical-ce":
            y = np.eye(outputs)[rng.integers(0, outputs, size=n)]
        else:
            y = np.hstack([np.sin(x[:, :1]), x[:, 1:] * x[:, :1]]) + rng.normal(0, 0.1, (n, 2))
        contexts.append(TaskDataset(x, y, noise_variance=0.01))
    return source, contexts


class TestStackedHeadRefit:
    """``refit_last_layer`` steps every context's head in one stacked loop;
    each head must come out bitwise equal to its own ``net.train`` run."""

    # Mixed sizes: two groups of more than one context, sizes that batch
    # size 8 does not divide, and a group of one.
    SIZES = (10, 37, 64, 10, 37)

    @pytest.mark.parametrize("optimizer", ["sgd-momentum", "adam"])
    @pytest.mark.parametrize("loss", ["mse", "heteroscedastic-gaussian", "categorical-ce"])
    def test_bitwise_equal_to_per_task_train(self, loss, optimizer):
        source, contexts = head_problem(loss, self.SIZES)
        cfg = OptimizerConfig(
            optimizer=optimizer, learning_rate=0.05, epochs=4, batch_size=8, loss=loss, seed=3
        )
        refits = refit_last_layer(source, contexts, cfg)
        assert len(refits) == len(contexts)
        for refit, context in zip(refits, contexts):
            assert np.array_equal(refit.params, head_view_refit(source, context, cfg))
            assert not np.array_equal(refit.params, source.params)

    def test_zero_epochs_return_the_source(self):
        source, contexts = head_problem("mse", self.SIZES)
        cfg = OptimizerConfig(epochs=0, batch_size=8)
        for refit, context in zip(refit_last_layer(source, contexts, cfg), contexts):
            assert np.array_equal(refit.params, source.params)
            assert np.array_equal(refit.params, head_view_refit(source, context, cfg))

    def test_no_contexts_no_refits(self):
        source, _ = head_problem("mse", ())
        assert refit_last_layer(source, [], OptimizerConfig()) == ()

    def test_rejects_mismatched_target_width(self):
        source, contexts = head_problem("mse", (10,))
        bad = TaskDataset(contexts[0].x, contexts[0].y[:, :1], 0.01)
        with pytest.raises(ContractViolationError, match="task 1"):
            refit_last_layer(source, [contexts[0], bad], OptimizerConfig())

    def test_divergence_names_task_and_epoch(self):
        # Task 0's targets are the source's own outputs: zero residual,
        # zero gradient, so only task 1 can diverge.
        source, contexts = head_problem("mse", (10, 10))
        exact = TaskDataset(contexts[0].x, forward(source, contexts[0].x), 0.01)
        cfg = OptimizerConfig(learning_rate=1e300, epochs=3, batch_size=4)
        with pytest.raises(TrainingDivergenceError, match="task 1: non-finite .* at epoch 0") as info:
            refit_last_layer(source, [exact, contexts[1]], cfg)
        assert info.value.task == 1 and info.value.epoch == 0


def per_task_baselines(source, tasks, cfg, noise_variance=None):
    """The reference scorer: each task's own forward pass of the source and of its refit."""
    refits = refit_last_layer(source, [context for context, _ in tasks], cfg)
    channels = source.architecture.regression_channels

    def metrics(net, eval_set):
        pred = forward(net, eval_set.x)
        if channels is not None:
            pred = pred[:, list(channels)]
        sigma2 = eval_set.noise_variance if noise_variance is None else noise_variance
        return Metrics(
            mse=float(mean_squared_error(pred, eval_set.y)),
            nll=float(gaussian_nll(pred, np.full_like(pred, sigma2), eval_set.y)),
        )

    return [(metrics(source, e), metrics(refit, e)) for refit, (_, e) in zip(refits, tasks)]


def scored_pairs(source, context_sizes, eval_sizes, seed=7):
    """(context, eval) pairs of smooth targets in the source's regression width."""
    arch = source.architecture
    rng = np.random.default_rng(seed)

    def dataset(n):
        x = rng.uniform(-2.0, 2.0, size=(n, arch.input_dim))
        y = np.sin(x[:, :1] * np.arange(1, arch.output_dim + 1)) + rng.normal(0, 0.1, (n, arch.output_dim))
        return TaskDataset(x, y, noise_variance=float(rng.uniform(0.01, 0.1)))

    return [(dataset(n), dataset(m)) for n, m in zip(context_sizes, eval_sizes)]


class TestBaselineScorer:
    """``score_baselines`` scores each eval-size group from one trace of the
    source; ``per_task_baselines`` is the per-task loop it replaced."""

    # Bound on the last-bit changes of a concatenated trace, fixed before
    # the stacked scorer was written: BLAS kernels may round a row
    # differently at a different row count.
    RTOL = 1e-12

    def assert_close(self, got, want):
        assert len(got) == len(want)
        for got_pair, want_pair in zip(got, want):
            for g, w in zip(got_pair, want_pair):
                assert g.mse == pytest.approx(w.mse, rel=self.RTOL, abs=0.0)
                assert g.nll == pytest.approx(w.nll, rel=self.RTOL, abs=0.0)

    def test_sinusoid_shape_is_bitwise_the_per_task_loop(self):
        # The sinusoid experiment's shape: a (40, 40) tanh net and 20 eval
        # sets of 40 points, one group; its rows are byte-identical.
        source = init_network(MlpArchitecture(1, (40, 40), 1, activation="tanh"), seed=3)
        tasks = sample_sinusoid_tasks(SinusoidTaskSpec(points_per_task=50, seed=3), 20)
        pairs = [stratified_split(task, 10) for task in tasks]
        cfg = OptimizerConfig(learning_rate=1e-3, epochs=5, batch_size=3, seed=3)
        got = score_baselines(source, pairs, cfg, noise_variance=1e-4)
        assert got == per_task_baselines(source, pairs, cfg, noise_variance=1e-4)

    @pytest.mark.parametrize("noise_variance", [None, 0.05])
    def test_mixed_eval_sizes(self, noise_variance):
        source = init_network(MlpArchitecture(2, (9, 6), 2), seed=8)
        pairs = scored_pairs(source, (10, 10, 13, 10, 13, 10), (7, 12, 7, 30, 12, 1))
        cfg = OptimizerConfig(optimizer="adam", learning_rate=0.05, epochs=4, batch_size=4, seed=1)
        got = score_baselines(source, pairs, cfg, noise_variance)
        self.assert_close(got, per_task_baselines(source, pairs, cfg, noise_variance))
        # Each task's NLL uses its own eval noise unless one is given.
        assert got[0][0].nll != got[2][0].nll

    def test_heteroscedastic_regression_view(self):
        # Both baselines read the mean columns of the (mean, raw-scale) pairs.
        source, contexts = head_problem("heteroscedastic-gaussian", (10, 10, 14))
        evals = [pair[1] for pair in scored_pairs(source, (1, 1, 1), (6, 6, 9))]
        pairs = list(zip(contexts, evals))
        cfg = OptimizerConfig(learning_rate=0.05, epochs=3, batch_size=4, loss="heteroscedastic-gaussian")
        got = score_baselines(source, pairs, cfg)
        self.assert_close(got, per_task_baselines(source, pairs, cfg))
        mean = forward(source, evals[2].x)[:, 0::2]
        assert got[2][0].mse == pytest.approx(float(mean_squared_error(mean, evals[2].y)), rel=self.RTOL)
        assert all(plain != head for plain, head in got)

    def test_diverging_head_names_its_task(self):
        # Tasks 0 and 1 target the source's own outputs (zero gradient), so
        # only task 2's head can diverge.
        source, contexts = head_problem("mse", (10, 10, 10))
        exact = [TaskDataset(c.x, forward(source, c.x), 0.01) for c in contexts[:2]]
        pairs = [(context, context) for context in (*exact, contexts[2])]
        cfg = OptimizerConfig(learning_rate=1e300, epochs=3, batch_size=4)
        with pytest.raises(TrainingDivergenceError, match="task 2: non-finite .* at epoch 0") as info:
            score_baselines(source, pairs, cfg)
        assert info.value.task == 2 and info.value.epoch == 0

    def test_one_trace_per_eval_size_and_per_context(self, monkeypatch):
        source = init_network(MlpArchitecture(1, (8,), 1), seed=2)
        pairs = scored_pairs(source, (6, 6, 9), (5, 4, 5))
        rows = []
        trace = adapt_module._forward_trace

        def spy(network, x):
            rows.append(len(x))
            return trace(network, x)

        monkeypatch.setattr(adapt_module, "_forward_trace", spy)
        score_baselines(source, pairs, OptimizerConfig(epochs=2, batch_size=4))
        assert rows == [6, 6, 9, 5 + 5, 4]

    def test_rejects_mismatched_eval_width(self):
        source, contexts = head_problem("mse", (10, 10))
        bad = TaskDataset(contexts[1].x, contexts[1].y[:, :1], 0.01)
        with pytest.raises(ContractViolationError, match="task 1 has 2 eval inputs and 1 eval targets"):
            score_baselines(source, [(contexts[0], contexts[0]), (contexts[1], bad)], OptimizerConfig())

    def test_rejects_a_task_without_eval_set(self):
        source, contexts = head_problem("mse", (10,))
        with pytest.raises(ContractViolationError, match="task 0 has no eval set"):
            score_baselines(source, [(contexts[0], None)], OptimizerConfig())

    def test_no_tasks_no_scores(self):
        source, _ = head_problem("mse", ())
        assert score_baselines(source, [], OptimizerConfig()) == []


class TestSinusoidExperiment:
    def small(self):
        return SinusoidExperimentConfig(
            num_tasks=3,
            context_size=8,
            points_per_task=30,
            source_points=60,
            source_epochs=200,
            noise_grid_decades=6,
            seed=0,
        )

    def test_table_shape_and_rates(self):
        exp = sinusoid_experiment(self.small())
        lines = exp.to_csv().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 1 + 3 * 3
        methods = {line.split(",")[1] for line in lines[1:]}
        assert methods == {"finite-ntk", "no-retrain", "last-layer"}
        assert 0.0 <= exp.win_rate_vs_no_retrain <= 1.0
        assert 0.0 <= exp.win_rate_vs_last_layer <= 1.0
        assert exp.source_training_mse > 0.0

    def test_deterministic(self):
        a = sinusoid_experiment(self.small())
        b = sinusoid_experiment(self.small())
        assert a.to_csv() == b.to_csv()
        assert a.summary_json() == b.summary_json()
        assert a.source_fingerprint == b.source_fingerprint

    def test_debug_log_times_each_task_and_the_refit(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="tangentgp"):
            sinusoid_experiment(self.small())
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        # The three tasks share a context size, so one line times their
        # stacked pass.
        timed = re.compile(r"(adapted 3 tasks of 8 context points|refit 3 last-layer heads) in \d+\.\d{3} ms")
        assert len(lines) == 2 and all(timed.fullmatch(line) for line in lines)
        assert lines[0].startswith("adapted 3 tasks")

    def test_config_validation(self):
        with pytest.raises(ContractViolationError, match="at least one task"):
            SinusoidExperimentConfig(num_tasks=0)
        with pytest.raises(ContractViolationError, match="evaluation point"):
            SinusoidExperimentConfig(context_size=50, points_per_task=50)
        with pytest.raises(ContractViolationError, match="decade"):
            SinusoidExperimentConfig(noise_grid_decades=0)
