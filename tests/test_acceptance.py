"""Acceptance gate: one numbered pass/fail line per criterion.

Each test prints its verdict directly to the terminal (outside pytest's
capture) so the gate is readable from a plain ``pytest`` run, then asserts.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import tangentgp.gp as gp_module

from tangentgp.adapt import (
    SinusoidTaskSpec,
    sample_sinusoid_tasks,
    sinusoid_experiment,
    stratified_split,
)
from tangentgp.analysis import StudyConfig, task_similarity_study
from tangentgp.cli import main
from tangentgp.fisher import CategoricalLikelihood, GaussianLikelihood, fvp_error_sweep
from tangentgp.config import save_checkpoint
from tangentgp.glm import (
    ClassificationData,
    GlmFitConfig,
    _laplace_draw,
    fit_laplace,
    fit_map,
    kl_meanfield_to_prior,
    laplace_precision,
    predict_class,
    zero_coefficients_glm,
)
from tangentgp.gp import (
    fit_function_space,
    fit_parameter_space,
    log_marginal_likelihood,
    predict,
)
from tangentgp.linalg import (
    SymmetricLinearOperator,
    cg_solve,
    lanczos_factorize,
    lowrank_inverse_root,
)
from tangentgp.net import (
    JacobianOperator,
    MlpArchitecture,
    TaskDataset,
    forward,
    init_network,
)
from tangentgp.serialize import write_dataset_csv


def report(capsys, num, desc, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num:02d} {'PASS' if ok else 'FAIL'}: {desc} ({detail})")
    assert ok, f"acceptance {num:02d}: {desc} ({detail})"


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def seeded_problem(seed, max_out=60):
    """A small random tanh regression problem with p <= 300."""
    rng = np.random.default_rng(seed)
    hiddens = [(6,), (8,), (5, 4), (10,), (4, 6)][seed % 5]
    arch = MlpArchitecture(1 + seed % 3, hiddens, 1 + seed % 2)
    assert arch.parameter_count <= 300
    n = 5 + seed % (max_out // arch.output_dim - 4)
    x = rng.uniform(-2.0, 2.0, size=(n, arch.input_dim))
    y = rng.normal(size=(n, arch.output_dim))
    sigma2 = 0.05 + 0.1 * (seed % 4)
    net = init_network(arch, seed=seed)
    x_test = rng.uniform(-2.5, 2.5, size=(7, arch.input_dim))
    return net, TaskDataset(x, y, noise_variance=sigma2), x_test


@contextmanager
def matrix_free(rank):
    """Fits inside run CG plus a Lanczos root of at most ``rank`` steps."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_module, "EXACT_FIT_LIMIT", 0)
        patch.setattr(gp_module, "DEFAULT_VARIANCE_RANK", rank)
        yield


def test_01_dual_space_agreement(capsys):
    start = time.perf_counter()
    worst_mean, worst_var = 0.0, 0.0
    for seed in range(50):
        net, data, x_test = seeded_problem(seed)
        with matrix_free(data.y.size):
            f_post = fit_function_space(net, data)
        with matrix_free(net.architecture.parameter_count):
            p_post = fit_parameter_space(net, data)
        f_mean, f_var = predict(f_post, net, x_test)
        p_mean, p_var = predict(p_post, net, x_test)
        worst_mean = max(worst_mean, rel_err(p_mean, f_mean))
        worst_var = max(worst_var, float(np.max(np.abs(p_var - f_var))))
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 1e-6 and worst_var <= 1e-6 and elapsed < 60.0
    report(
        capsys, 1, "parameter- and function-space posteriors agree on 50 problems",
        ok, f"mean rel {worst_mean:.2e}, var abs {worst_var:.2e}, {elapsed:.1f}s",
    )


def test_02_matrix_free_matches_dense_closed_form(capsys):
    worst = 0.0
    for seed in range(20):
        net, data, x_test = seeded_problem(seed, max_out=40)
        sigma2 = data.noise_variance
        resid = data.y.ravel()
        d_train = JacobianOperator(net, data.x).dense()
        d_test = JacobianOperator(net, x_test).dense()
        out_len = resid.size
        n_test = x_test.shape[0]

        kern = d_train.T @ d_train
        alpha = np.linalg.solve(kern + sigma2 * np.eye(out_len), resid)
        mean_fn = (d_test.T @ (d_train @ alpha)).reshape(n_test, -1)
        cross = np.linalg.solve(kern + sigma2 * np.eye(out_len), d_train.T @ d_test)
        var_fn = (
            np.einsum("pj,pj->j", d_test, d_test)
            - np.einsum("ij,ij->j", d_train.T @ d_test, cross)
        ).reshape(n_test, -1)

        p = net.architecture.parameter_count
        prec = d_train @ d_train.T + sigma2 * np.eye(p)
        mean_cache = np.linalg.solve(prec, d_train @ resid)
        mean_par = (d_test.T @ mean_cache).reshape(n_test, -1)
        var_par = (
            sigma2 * np.einsum("pj,pj->j", d_test, np.linalg.solve(prec, d_test))
        ).reshape(n_test, -1)

        with matrix_free(out_len):
            f_post = fit_function_space(net, data)
        with matrix_free(p):
            p_post = fit_parameter_space(net, data)
        f_mean, f_var = predict(f_post, net, x_test)
        p_mean, p_var = predict(p_post, net, x_test)
        for got, want in (
            (f_mean, mean_fn), (f_var, var_fn), (p_mean, mean_par), (p_var, var_par),
        ):
            worst = max(worst, rel_err(got, want))
    ok = worst <= 1e-6
    report(
        capsys, 2, "matrix-free fits match dense closed-form posteriors on 20 problems",
        ok, f"worst rel {worst:.2e}",
    )


def test_03_jacobian_against_finite_differences(capsys):
    net = init_network(MlpArchitecture(2, (7, 5), 2), seed=4)
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.5, 1.5, size=(4, 2))
    jac = JacobianOperator(net, x)
    dense = jac.dense()
    h = 1e-5
    fd = np.empty_like(dense)
    for i in range(dense.shape[0]):
        step = np.zeros(dense.shape[0])
        step[i] = h
        hi = forward(net.with_params(net.params + step), x).ravel()
        lo = forward(net.with_params(net.params - step), x).ravel()
        fd[i] = (hi - lo) / (2.0 * h)
    entrywise = float(np.max(np.abs(fd - dense) / np.maximum(np.abs(dense), 1e-6)))

    adjoint = 0.0
    for _ in range(100):
        u = rng.standard_normal(jac.param_count)
        v = rng.standard_normal(jac.out_len)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        adjoint = max(adjoint, abs(float(u @ jac.vjp(v)) - float(jac.jvp(u) @ v)))
    ok = entrywise <= 1e-4 and adjoint <= 1e-10
    report(
        capsys, 3, "dense Jacobian matches central differences and the adjoint identity",
        ok, f"entrywise rel {entrywise:.2e}, adjoint {adjoint:.2e}",
    )


def offset_net(dims, seed):
    """Seeded tanh net with the output biases pushed far from zero.

    The offset keeps the forward pass in the un-normalized regime where
    the subtractive-cancellation branch of the finite-difference error
    curve is visible at double precision.
    """
    arch = MlpArchitecture(dims[0], tuple(dims[1:-1]), dims[-1])
    net = init_network(arch, seed=seed)
    params = net.params.copy()
    params[-arch.output_dim:] += 1e5
    return net.with_params(params)


def test_04_fd_fvp_error_curve(capsys):
    rng = np.random.default_rng(99)
    grid = (1e-2, 1e-4, 1e-8)
    results = {}
    for name, net, like, x in (
        ("gaussian", offset_net((1, 32, 1), 0), GaussianLikelihood(1.0),
         rng.uniform(-2, 2, size=(16, 1))),
        ("softmax", offset_net((2, 24, 2), 1), CategoricalLikelihood(2),
         rng.uniform(-2, 2, size=(16, 2))),
    ):
        sweep = fvp_error_sweep(net, x, like, grid, num_probes=8, seed=0)
        results[name] = sweep.mean_rel_err
    ok = all(
        mid <= 1e-2 and mid < hi and mid < lo
        for hi, mid, lo in results.values()
    )
    detail = ", ".join(
        f"{k} err(1e-4) {v[1]:.2e}" for k, v in results.items()
    )
    report(
        capsys, 4, "finite-difference Fisher products are accurate at eps 1e-4 with a U-shaped error curve",
        ok, detail,
    )


def test_05_gram_eigenvalues_match_across_spaces(capsys):
    worst = 0.0
    for seed in (0, 1, 2):
        net, data, _ = seeded_problem(seed, max_out=24)
        dense = JacobianOperator(net, data.x).dense()
        n = data.n
        small = np.linalg.eigvalsh(dense.T @ dense / n)[::-1]
        big = np.linalg.eigvalsh(dense @ dense.T / n)[::-1]
        cut = 1e-9 * max(small[0], big[0])
        small = small[small > cut]
        big = big[big > cut]
        assert len(small) == len(big)
        worst = max(worst, float(np.max(np.abs(small - big) / small)))
    ok = worst <= 1e-8
    report(
        capsys, 5, "nonzero Gram eigenvalues agree between output and parameter space",
        ok, f"worst rel {worst:.2e}",
    )


def test_06_krylov_solvers_match_dense_algebra(capsys):
    rng = np.random.default_rng(17)
    dim = 32
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    evals = np.linspace(0.5, 10.0, dim)
    mat = basis @ (evals[:, None] * basis.T)
    op = SymmetricLinearOperator(dim=dim, base=lambda v: mat @ v)
    b = rng.standard_normal(dim)

    exact = np.linalg.solve(mat, b)
    cg = cg_solve(op, b, tol=1e-12).x
    cg_err = float(np.linalg.norm(cg - exact) / np.linalg.norm(exact))

    probe = rng.standard_normal(dim)
    factors = lanczos_factorize(op, probe, rank=dim)
    recon = factors.q @ factors.t @ factors.q.T
    lanczos_err = float(np.linalg.norm(recon - mat) / np.linalg.norm(mat))

    root = lowrank_inverse_root(factors)
    inv = np.linalg.inv(mat)
    root_err = float(np.linalg.norm(root @ root.T - inv) / np.linalg.norm(inv))

    ok = cg_err <= 1e-8 and lanczos_err <= 1e-6 and root_err <= 1e-5
    report(
        capsys, 6, "CG, Lanczos reconstruction, and inverse roots match dense algebra",
        ok, f"cg {cg_err:.2e}, QTQ' {lanczos_err:.2e}, RR' {root_err:.2e}",
    )


def test_07_sinusoid_adaptation_beats_baselines(capsys):
    start = time.perf_counter()
    exp = sinusoid_experiment()
    elapsed = time.perf_counter() - start
    ok = (
        exp.win_rate_vs_no_retrain >= 0.90
        and exp.win_rate_vs_last_layer >= 0.60
        and elapsed < 600.0
    )
    report(
        capsys, 7, "tangent-kernel adaptation beats no-retrain and last-layer baselines",
        ok,
        f"win vs no-retrain {exp.win_rate_vs_no_retrain:.2f}, "
        f"vs last-layer {exp.win_rate_vs_last_layer:.2f}, {elapsed:.0f}s",
    )


def test_08_similarity_separates_task_distributions(capsys):
    margins = []
    diag_dev = 0.0
    for seed in range(5):
        rep = task_similarity_study(StudyConfig(seed=seed))
        margins.append((rep.within_same_distribution_mean, rep.cross_distribution_mean))
        diag_dev = max(diag_dev, float(np.max(np.abs(np.diag(rep.matrix) - 1.0))))
    ok = all(w > c for w, c in margins) and diag_dev <= 1e-8
    spread = ", ".join(f"{w:.3f}>{c:.3f}" for w, c in margins)
    report(
        capsys, 8, "within-distribution similarity exceeds cross-distribution over 5 seeds",
        ok, f"{spread}; self-sim dev {diag_dev:.1e}",
    )


class _FixedDraw:
    """Generator stand-in handing the draw consecutive slices of a chosen vector."""

    def __init__(self, e):
        self.rest = np.asarray(e, dtype=np.float64)

    def standard_normal(self, n):
        part, self.rest = self.rest[:n], self.rest[n:]
        assert part.size == n
        return part


def logistic_oracle_accuracy(x, labels, x_test, labels_test):
    """Newton-iterated logistic regression on raw inputs plus a bias."""
    phi = np.hstack([x, np.ones((len(x), 1))])
    w = np.zeros(phi.shape[1])
    for _ in range(30):
        prob = 1.0 / (1.0 + np.exp(-phi @ w))
        curv = np.clip(prob * (1.0 - prob), 1e-9, None)
        hess = phi.T @ (phi * curv[:, None]) + 1e-6 * np.eye(phi.shape[1])
        w = w + np.linalg.solve(hess, phi.T @ (labels - prob))
    phi_test = np.hstack([x_test, np.ones((len(x_test), 1))])
    pred = (phi_test @ w > 0).astype(np.int64)
    return float((pred == labels_test).mean())


def test_09_glm_suite(capsys):
    rng = np.random.default_rng(21)
    lo = rng.normal((-1.5, -1.5), 0.5, size=(200, 2))
    hi = rng.normal((1.5, 1.5), 0.5, size=(200, 2))
    x = np.vstack([lo[:100], hi[:100]])
    labels = np.array([0] * 100 + [1] * 100)
    x_test = np.vstack([lo[100:], hi[100:]])
    data = ClassificationData(x, labels)
    model = zero_coefficients_glm(init_network(MlpArchitecture(2, (16,), 2), seed=7))
    fitted = fit_map(model, data, GlmFitConfig(learning_rate=0.05, epochs=40, seed=1))
    _, pred = predict_class(fitted.model, fitted.posterior, x_test)
    acc = float((pred == labels).mean())
    oracle = logistic_oracle_accuracy(x, labels, x_test, labels)

    kl = kl_meanfield_to_prior(np.zeros(4), np.ones(4), prior_variance=1.0)

    affine = zero_coefficients_glm(
        init_network(MlpArchitecture(1, (), 2), seed=3), prior_variance=0.5
    )
    x1 = rng.uniform(-2, 2, size=(20, 1))
    small = ClassificationData(x1, (x1[:, 0] > 0).astype(np.int64))
    laplace = fit_laplace(affine, small)
    prec_op = laplace_precision(affine, laplace)
    # glm-predict's draw is mean + S [z; v], linear in its noise (z, v) of
    # sizes p and m = n (c - 1), so basis vectors rebuild S column by
    # column; S S' must be the inverse of the dense precision.
    size = prec_op.dim + len(laplace.fisher_x) * (affine.num_classes - 1)
    draws = [_laplace_draw(affine, laplace, None, _FixedDraw(e)) for e in np.eye(size)]
    root = np.column_stack(draws) - laplace.mean[:, None]
    dense_cov = np.linalg.inv(prec_op.to_dense())
    cov_err = float(np.linalg.norm(root @ root.T - dense_cov) / np.linalg.norm(dense_cov))

    ok = acc >= 0.95 and abs(acc - oracle) <= 0.03 and kl == 0.0 and cov_err <= 1e-10
    report(
        capsys, 9, "GLM suite: MAP accuracy, prior KL zero, Laplace covariance",
        ok, f"acc {acc:.3f} vs oracle {oracle:.3f}, kl {kl}, cov rel {cov_err:.2e}",
    )


def run_twice(argv_builder, tmp_path, name):
    """Run a pipeline into two sibling directories and compare all bytes."""
    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / f"{name}-{tag}"
        d.mkdir()
        argv, files = argv_builder(d)
        assert main(argv) == 0, f"{name} run failed"
        outputs.append([(f.name, f.read_bytes()) for f in sorted(files)])
    return outputs[0] == outputs[1]


def test_10_cli_pipelines_are_deterministic(capsys, tmp_path):
    import json as _json

    cfg = tmp_path / "cfg.json"
    cfg.write_text(_json.dumps({
        "version": 1,
        "seed": 0,
        "architecture": {"input_dim": 1, "hidden_widths": [12], "output_dim": 1},
        "optimizer": {"learning_rate": 5e-3, "epochs": 60, "batch_size": 8},
        "task": {"kind": "sinusoid", "points_per_task": 24, "num_tasks": 2, "context_size": 8},
    }))
    ckpt = tmp_path / "ckpt.json"
    assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0

    task = sample_sinusoid_tasks(SinusoidTaskSpec(points_per_task=24, seed=5), 1)[0]
    context, _ = stratified_split(task, 8)
    write_dataset_csv(tmp_path / "ctx.csv", context.x, context.y)
    manifest = tmp_path / "tasks.json"
    manifest.write_text(_json.dumps([{"context": "ctx.csv", "noise_variance": 0.01}]))
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("x_0\n0.25\n-1.5\n")
    inputs2d = tmp_path / "inputs2d.csv"
    inputs2d.write_text("x_0,x_1\n-2,-2\n2,2\n")

    rng = np.random.default_rng(3)
    blob_x = np.vstack([
        rng.normal((-2, -2), 0.4, size=(12, 2)), rng.normal((2, 2), 0.4, size=(12, 2)),
    ])
    blob_csv = tmp_path / "blobs.csv"
    header = "x_0,x_1,label\n"
    body = "".join(
        f"{a},{b},{0 if i < 12 else 1}\n" for i, (a, b) in enumerate(blob_x)
    )
    blob_csv.write_text(header + body)
    clf_cfg = tmp_path / "clf.json"
    clf_cfg.write_text(_json.dumps({
        "version": 1,
        "seed": 0,
        "glm": {"method": "map", "epochs": 8, "learning_rate": 0.05},
    }))
    laplace_cfg = tmp_path / "laplace.json"
    laplace_cfg.write_text(_json.dumps({
        "version": 1,
        "seed": 0,
        "glm": {"method": "laplace", "epochs": 8, "learning_rate": 0.05, "predict_mode": "single_sample"},
    }))
    clf_ckpt = tmp_path / "clf-ckpt.json"
    save_checkpoint(init_network(MlpArchitecture(2, (8,), 2), seed=1), clf_ckpt, {})
    fit = tmp_path / "fit.json"
    assert main([
        "glm-fit", "--config", str(clf_cfg), "--checkpoint", str(clf_ckpt),
        "--data", str(blob_csv), "--out", str(fit),
    ]) == 0
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(_json.dumps({
        "version": 1,
        "seed": 0,
        "experiment": {
            "num_tasks": 2, "context_size": 8, "points_per_task": 24,
            "source_points": 40, "source_epochs": 120, "noise_grid_decades": 4,
        },
    }))
    study_cfg = tmp_path / "study.json"
    study_cfg.write_text(_json.dumps({
        "version": 1,
        "seed": 0,
        "study": {
            "models_per_group": 1, "train_points": 40, "eval_points": 12,
            "epochs": 8, "realign_steps": 20,
        },
    }))

    pipelines = {
        "train": lambda d: (
            ["train", "--config", str(cfg), "--out", str(d / "ck.json")],
            [d / "ck.json", d / "ck.trace.csv"],
        ),
        "adapt": lambda d: (
            ["adapt", "--config", str(cfg), "--checkpoint", str(ckpt),
             "--tasks", str(manifest), "--posterior-out", str(d / "post.json"),
             "--out", str(d / "rows.csv")],
            [d / "rows.csv", d / "post.json"],
        ),
        "fvp-bench": lambda d: (
            ["fvp-bench", "--config", str(cfg), "--checkpoint", str(ckpt),
             "--out", str(d / "sweep.csv")],
            [d / "sweep.csv"],
        ),
        "similarity": lambda d: (
            ["similarity", "--config", str(study_cfg), "--out", str(d / "rep.json")],
            [d / "rep.json"],
        ),
        "glm-fit": lambda d: (
            ["glm-fit", "--config", str(clf_cfg), "--checkpoint", str(clf_ckpt),
             "--data", str(blob_csv), "--out", str(d / "fit.json")],
            [d / "fit.json"],
        ),
        "glm-fit-laplace": lambda d: (
            ["glm-fit", "--config", str(laplace_cfg), "--checkpoint", str(clf_ckpt),
             "--data", str(blob_csv), "--out", str(d / "fit.json")],
            [d / "fit.json", d / "fit.laplace.npy"],
        ),
        "glm-predict": lambda d: (
            ["glm-predict", "--config", str(clf_cfg), "--checkpoint", str(clf_ckpt),
             "--fit", str(fit), "--inputs", str(inputs2d), "--out", str(d / "pred.csv")],
            [d / "pred.csv"],
        ),
        "sinusoid-exp": lambda d: (
            ["sinusoid-exp", "--config", str(exp_cfg), "--out", str(d / "exp.csv")],
            [d / "exp.csv"],
        ),
    }
    failures = [name for name, build in pipelines.items()
                if not run_twice(build, tmp_path, name)]

    post = tmp_path / "posterior.json"
    assert main([
        "adapt", "--config", str(cfg), "--checkpoint", str(ckpt), "--tasks", str(manifest),
        "--posterior-out", str(post), "--out", str(tmp_path / "rows.csv"),
    ]) == 0
    if not run_twice(
        lambda d: (
            ["predict", "--checkpoint", str(ckpt), "--posterior", str(post),
             "--inputs", str(inputs), "--out", str(d / "pred.csv")],
            [d / "pred.csv"],
        ),
        tmp_path, "predict",
    ):
        failures.append("predict")

    ok = not failures
    report(
        capsys, 10, "every CLI pipeline is byte-deterministic under a fixed config and seed",
        ok, f"{len(pipelines) + 1} pipelines compared" if ok else f"nondeterministic: {failures}",
    )


def test_11_log_marginal_scaling(capsys):
    arch = MlpArchitecture(1, (96, 96), 1)
    net = init_network(arch, seed=0)
    rng = np.random.default_rng(0)

    def timed(n):
        x = rng.uniform(-3.0, 3.0, size=(n, 1))
        y = np.sin(x) + 0.1 * rng.standard_normal((n, 1))
        data = TaskDataset(x, y, noise_variance=0.1)
        start = time.perf_counter()
        value = log_marginal_likelihood(net, data)
        return time.perf_counter() - start, value

    t_small, v_small = timed(500)
    t_big, v_big = timed(2000)
    ratio = t_big / t_small
    ok = ratio <= 25.0 and np.isfinite(v_small) and np.isfinite(v_big)
    report(
        capsys, 11, f"log-marginal wall time scales sub-cubically at p={arch.parameter_count}",
        ok, f"n=500 {t_small:.2f}s, n=2000 {t_big:.2f}s, ratio {ratio:.1f}x",
    )


def test_12_exact_fit_where_lanczos_truncates(capsys):
    # p = 4801 and n = 400 at noise 1e-4: CG fails or stalls on this system
    # and a rank-256 Lanczos root misses most of the variance; a fit this
    # size factors the 400 x 400 kernel instead.
    net = init_network(MlpArchitecture(8, (64, 64), 1), seed=0)
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 2.0, size=(400, 8))
    y = np.sin(x.sum(axis=1, keepdims=True)) + 0.01 * rng.standard_normal((400, 1))
    x_test = rng.uniform(-2.0, 2.0, size=(64, 8))
    data = TaskDataset(x, y, noise_variance=1e-4)
    j = JacobianOperator(net, x).dense()
    jt = JacobianOperator(net, x_test).dense()
    gram = j.T @ j + data.noise_variance * np.eye(len(x))
    cross = j.T @ jt
    mean_o = cross.T @ np.linalg.solve(gram, y.ravel())
    var_o = np.einsum("pj,pj->j", jt, jt) - np.einsum("ij,ij->j", cross, np.linalg.solve(gram, cross))
    errors = []
    for fit in (fit_function_space, fit_parameter_space):
        mean, var = predict(fit(net, data), net, x_test)
        errors += [rel_err(mean.ravel(), mean_o), rel_err(var.ravel(), var_o)]
    ok = max(errors) <= 1e-8
    report(
        capsys, 12, "fits under the size limit are exact where the Lanczos root truncates (p=4801, n=400)",
        ok, "mean/var rel err function {:.1e}/{:.1e}, parameter {:.1e}/{:.1e}".format(*errors),
    )
