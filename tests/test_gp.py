"""Tangent-kernel GP fits against dense closed-form oracles.

The oracle here assembles the Jacobian explicitly and evaluates the two
textbook posterior forms directly: the n*o-dimensional (function space)
solve and the p-dimensional (parameter space) solve. Every fit, exact or
matrix-free, must reproduce these numbers.
"""

import json
import math
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import tangentgp.gp as gp_module
from tangentgp.errors import (
    ConfigError,
    ConsistencyError,
    ContractViolationError,
    NumericBreakdownError,
    ResourceLimitError,
)
from tangentgp.gp import (
    CHOLESKY_BLOCK,
    GramFactor,
    NtkPosterior,
    check_cholesky_panels,
    cholesky_solve,
    factor_gram,
    fit_function_space,
    fit_parameter_space,
    fit_posterior,
    gram_cholesky,
    kernel_matrix,
    load_posterior,
    log_marginal_likelihood,
    panel_shapes,
    predict,
    save_posterior,
    smaller_gram,
)
from tangentgp.linalg import SymmetricLinearOperator, lanczos_factorize, lowrank_inverse_root
from tangentgp.net import (
    JacobianOperator,
    MlpArchitecture,
    MlpNetwork,
    TaskDataset,
    init_network,
)


def make_net(dims, seed, activation="tanh", heteroscedastic=False):
    arch = MlpArchitecture(
        input_dim=dims[0],
        hidden_widths=tuple(dims[1:-1]),
        output_dim=dims[-1],
        activation=activation,
        heteroscedastic=heteroscedastic,
    )
    return init_network(arch, seed=seed)


def select_columns(dense, out_dim, channels):
    if channels is None:
        return dense
    n = dense.shape[1] // out_dim
    idx = [i * out_dim + c for i in range(n) for c in channels]
    return dense[:, idx]


def dense_oracle(network, data, x_test, mean_kind="zero", space="function", channels=None):
    """Closed-form posterior evaluated with explicit Jacobians."""
    full_o = network.architecture.internal_output_dim
    j = select_columns(JacobianOperator(network, data.x).dense(), full_o, channels)
    jac_test = JacobianOperator(network, x_test)
    jt = select_columns(jac_test.dense(), full_o, channels)
    theta = network.params
    o_sel = full_o if channels is None else len(channels)

    def mean_values(jmat, outputs):
        if mean_kind == "zero":
            return np.zeros(jmat.shape[1])
        if mean_kind == "jacobian_mean":
            return jmat.T @ theta
        return outputs + jmat.T @ theta

    train_out = JacobianOperator(network, data.x).outputs
    test_out = jac_test.outputs
    if channels is not None:
        train_out = train_out[:, list(channels)]
        test_out = test_out[:, list(channels)]
    resid = data.y.ravel() - mean_values(j, train_out.ravel())
    mu_test = mean_values(jt, test_out.ravel())
    s2 = data.noise_variance

    if space == "function":
        a = j.T @ j + s2 * np.eye(j.shape[1])
        sol = np.linalg.solve(a, resid)
        mean = jt.T @ (j @ sol) + mu_test
        shrink = j @ np.linalg.solve(a, j.T @ jt)
        var = np.einsum("pj,pj->j", jt, jt) - np.einsum("pj,pj->j", jt, shrink)
    else:
        a = j @ j.T + s2 * np.eye(j.shape[0])
        mean = jt.T @ np.linalg.solve(a, j @ resid) + mu_test
        var = s2 * np.einsum("pj,pj->j", jt, np.linalg.solve(a, jt))
    n_test = x_test.shape[0]
    return mean.reshape(n_test, o_sel), var.reshape(n_test, o_sel)


def spy_systems(monkeypatch):
    """The dual systems that ``fit_posterior`` calls run, in call order."""
    ran = []
    for side in ("function", "parameter"):
        fit = getattr(gp_module, f"fit_{side}_space")

        def spy(*args, _side=side, _fit=fit, **kwargs):
            ran.append(_side)
            return _fit(*args, **kwargs)

        monkeypatch.setattr(gp_module, f"fit_{side}_space", spy)
    return ran


@contextmanager
def matrix_free(rank=None):
    """Fits inside run matrix-free: CG plus a Lanczos root of at most
    ``rank`` steps (default ``gp.DEFAULT_VARIANCE_RANK``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_module, "EXACT_FIT_LIMIT", 0)
        if rank is not None:
            patch.setattr(gp_module, "DEFAULT_VARIANCE_RANK", rank)
        yield


def matrix_free_columns(jac):
    """Reference Jacobian columns J e_b, one reverse product per column."""
    return np.column_stack([jac.vjp(e) for e in np.eye(jac.out_len)])


def operator_kernel(network, x1, x2, channels):
    """K(X1, X2) (X2 = X1 when None) of operators at any ``channels``, from ``gp._task_kernels``."""
    jac1 = JacobianOperator(network, x1, channels)
    if x2 is None:
        return gp_module._task_kernels(jac1)[0][0]
    return gp_module._task_kernels(jac1, JacobianOperator(network, x2, channels), square=False)[1][0]


def matrix_free_kernel(network, x1, x2, channels):
    """Reference kernel column by column: K[:, b] = J1' (J2 e_b)."""
    jac1 = JacobianOperator(network, x1, channels)
    jac2 = JacobianOperator(network, x2, channels)
    k = np.empty((jac1.out_len, jac2.out_len))
    for b in range(jac2.out_len):
        e = np.zeros(jac2.out_len)
        e[b] = 1.0
        k[:, b] = jac1.jvp(jac2.vjp(e))
    return k


def matrix_free_variances(posterior, network, x):
    """Reference predictive variances from per-column products J* e_b.

    A kernel-form root C is taken to the feature form J C by reverse
    products of the training Jacobian.
    """
    channels = network.architecture.regression_channels
    cols = matrix_free_columns(JacobianOperator(network, x, channels))
    col_sq = np.einsum("pj,pj->j", cols, cols)
    root = posterior.variance_root
    if posterior.inputs is not None:
        train = JacobianOperator(network, posterior.inputs, channels)
        root = np.column_stack([train.vjp(c) for c in root.T])
    rp = root.T @ cols
    var = col_sq - np.einsum("rj,rj->j", rp, rp)
    return np.maximum(var, 0.0).reshape(x.shape[0], -1)


def count_dense_blocks(monkeypatch):
    """Record the datum count of every dense Jacobian block assembled."""
    sizes = []
    original = JacobianOperator.dense

    def spy(self):
        sizes.append(self.n_data)
        return original(self)

    monkeypatch.setattr(JacobianOperator, "dense", spy)
    return sizes


def count_cross_kernel_rows(monkeypatch):
    """Record the query-row count of every cross kernel that ``predict`` assembles."""
    rows = []
    original = gp_module._task_kernels

    def spy(jac1, jac2=None, *args, **kwargs):
        rows.append(len(jac2.inputs))
        return original(jac1, jac2, *args, **kwargs)

    monkeypatch.setattr(gp_module, "_task_kernels", spy)
    return rows


def sinusoid_data(rng, n=8, noise=0.05):
    x = rng.uniform(-3, 3, size=(n, 1))
    y = np.sin(1.7 * x) + rng.normal(0, math.sqrt(noise), size=(n, 1))
    return TaskDataset(x, y, noise_variance=noise)


class TestKernelMatrix:
    def test_affine_single_datum(self):
        arch = MlpArchitecture(input_dim=1, hidden_widths=(), output_dim=1, activation="identity")
        net = MlpNetwork(arch, np.array([0.7, -0.2]))
        x = np.array([[3.0]])
        np.testing.assert_allclose(kernel_matrix(net, x), [[3.0**2 + 1.0]], rtol=1e-12)

    def test_gram_symmetry_and_psd(self):
        rng = np.random.default_rng(0)
        net = make_net([2, 10, 2], seed=0)
        x = rng.standard_normal((5, 2))
        k = kernel_matrix(net, x)
        assert np.max(np.abs(k - k.T)) <= 1e-10
        assert np.linalg.eigvalsh(k).min() >= -1e-8

    def test_matches_dense_jacobian_product(self):
        rng = np.random.default_rng(1)
        net = make_net([1, 8, 1], seed=1)
        x1 = rng.standard_normal((4, 1))
        x2 = rng.standard_normal((3, 1))
        j1 = JacobianOperator(net, x1).dense()
        j2 = JacobianOperator(net, x2).dense()
        np.testing.assert_allclose(kernel_matrix(net, x1, x2), j1.T @ j2, rtol=1e-10, atol=1e-12)

    def test_mapped_operator_kernels_match_dense_products(self):
        # B = J blockdiag(M_i') with k = 2 rows per datum against a query
        # operator with all 3 outputs: B'B, B'J* and the prior diag(J*'J*).
        rng = np.random.default_rng(2)
        net = make_net([2, 9, 6, 3], seed=2)
        x, xq = rng.standard_normal((5, 2)), rng.standard_normal((4, 2))
        maps = rng.standard_normal((5, 2, 3))
        jac = JacobianOperator(net, x).mapped(maps)
        query = JacobianOperator(net, xq)
        b = np.hstack([j_i @ m.T for j_i, m in zip(np.split(JacobianOperator(net, x).dense(), 5, axis=1), maps)])
        jq = query.dense()
        gram, cross, prior = gp_module._task_kernels(jac, query)
        for got, want in ((gram[0], b.T @ b), (cross[0], b.T @ jq), (kernel_matrix(net, jac, xq), b.T @ jq)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        np.testing.assert_allclose(prior[0], np.sum(jq * jq, axis=0), rtol=1e-12)
        np.testing.assert_array_equal(gram[0], gram[0].T)

    # (dims, activation, heteroscedastic, channels): two hidden layers, a
    # relu net with two outputs, an identity net with no hidden layers and
    # three outputs, a three-output net, and heteroscedastic single-channel
    # and reordered channel selections. The regression view (None here)
    # goes through ``kernel_matrix``, other selections through operators.
    @pytest.mark.parametrize(
        "dims, activation, heteroscedastic, channels",
        [
            ([3, 7, 5, 1], "tanh", False, None),
            ([3, 6, 4, 2], "relu", False, None),
            ([3, 3], "identity", False, None),
            ([3, 9, 3], "tanh", False, None),
            ([3, 8, 2], "tanh", True, (0,)),
            ([3, 8, 6, 2], "tanh", True, (1, 0)),
        ],
    )
    def test_layerwise_assembly_matches_dense_jacobians(
        self, monkeypatch, dims, activation, heteroscedastic, channels
    ):
        rng = np.random.default_rng(23)
        net = make_net(dims, seed=23, activation=activation, heteroscedastic=heteroscedastic)
        full_o = net.architecture.internal_output_dim
        x1 = rng.standard_normal((7, dims[0]))
        x2 = rng.standard_normal((5, dims[0]))
        j1 = select_columns(JacobianOperator(net, x1).dense(), full_o, channels)
        j2 = select_columns(JacobianOperator(net, x2).dense(), full_o, channels)
        sizes = count_dense_blocks(monkeypatch)
        kernel = kernel_matrix if channels is None else partial(operator_kernel, channels=channels)
        sym = kernel(net, x1, None)
        cross = kernel(net, x1, x2)
        empty = kernel(net, x1[:0], x2)
        assert sizes == []
        np.testing.assert_array_equal(sym, sym.T)
        for k, ref in ((sym, j1.T @ j1), (cross, j1.T @ j2)):
            assert k.shape == ref.shape
            assert np.max(np.abs(k - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert empty.shape == (0, j2.shape[1])

    def test_over_cap_is_a_resource_limit(self, monkeypatch):
        net = make_net([1, 8, 1], seed=1)
        monkeypatch.setattr(gp_module, "DENSE_JACOBIAN_CAP", 15)
        with pytest.raises(ResourceLimitError, match="matrix-free"):
            kernel_matrix(net, np.ones((4, 1)))

    def test_empty_inputs_are_still_validated(self):
        net = make_net([2, 6, 1], seed=2, heteroscedastic=True)
        assert kernel_matrix(net, np.zeros((0, 2))).shape == (0, 0)
        with pytest.raises(ContractViolationError, match="input_dim"):
            kernel_matrix(net, np.zeros((0, 3)))
        with pytest.raises(ContractViolationError, match="channel"):
            kernel_matrix(net, JacobianOperator(net, np.zeros((0, 2)), (1,)))

    def test_chunked_assembly_matches_one_chunk_and_columns(self, monkeypatch):
        rng = np.random.default_rng(22)
        net = make_net([2, 16, 1], seed=22, heteroscedastic=True)
        full_o = net.architecture.internal_output_dim
        x1 = rng.standard_normal((9, 2))
        x2 = rng.standard_normal((7, 2))
        cap = 3 * net.architecture.parameter_count * full_o
        # The regression view (0,) through ``kernel_matrix``, with and
        # without a cap; every output and a reordered pair through operators.
        for channels in (None, (0,), (1, 0)):
            for other in (None, x2):
                sizes = count_dense_blocks(monkeypatch)
                if channels == (0,):
                    one_chunk = kernel_matrix(net, x1, other)
                    monkeypatch.setattr(gp_module, "DENSE_JACOBIAN_CAP", cap)
                    chunked = kernel_matrix(net, x1, other)
                else:
                    one_chunk = chunked = operator_kernel(net, x1, other, channels)
                monkeypatch.undo()
                assert sizes == []
                ref = matrix_free_kernel(net, x1, x1 if other is None else other, channels)
                if other is None:
                    np.testing.assert_array_equal(chunked, chunked.T)
                    np.testing.assert_array_equal(one_chunk, one_chunk.T)
                scale = np.max(np.abs(ref))
                np.testing.assert_allclose(chunked, one_chunk, rtol=1e-12, atol=1e-12 * scale)
                np.testing.assert_allclose(chunked, ref, rtol=1e-12, atol=1e-12 * scale)


class TestFunctionSpaceFit:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        net = make_net([1, 8, 1], seed=2)
        data = sinusoid_data(rng, n=5)
        x_test = rng.uniform(-3, 3, size=(3, 1))
        with matrix_free():
            post = fit_function_space(net, data)
        mean, var = predict(post, net, x_test)
        mean_o, var_o = dense_oracle(net, data, x_test, space="function")
        np.testing.assert_allclose(mean, mean_o, rtol=1e-6)
        np.testing.assert_allclose(var, var_o, rtol=1e-6, atol=1e-10)

    def test_noiseless_interpolation(self):
        net = make_net([1, 6, 1], seed=3)
        data = TaskDataset(np.array([[0.5]]), np.array([[1.25]]), noise_variance=1e-10)
        with matrix_free():
            post = fit_function_space(net, data)
        mean, _ = predict(post, net, data.x)
        assert abs(mean[0, 0] - 1.25) <= 1e-4

    def test_zero_residual_returns_prior_mean(self):
        # With targets exactly equal to the prior mean surface the mean
        # cache must vanish, so predictions fall back to the prior.
        rng = np.random.default_rng(4)
        net = make_net([2, 6, 1], seed=4)
        x = rng.standard_normal((4, 2))
        jac = JacobianOperator(net, x)
        y = (jac.jvp(net.params)).reshape(4, 1)
        data = TaskDataset(x, y, noise_variance=0.1)
        with matrix_free():
            post = fit_function_space(net, data, mean_kind="jacobian_mean")
        np.testing.assert_allclose(post.mean_cache, np.zeros(jac.param_count), atol=1e-12)
        x_test = rng.standard_normal((3, 2))
        mean, _ = predict(post, net, x_test)
        mu = JacobianOperator(net, x_test).jvp(net.params).reshape(3, 1)
        np.testing.assert_allclose(mean, mu, atol=1e-10)


class TestParameterSpaceFit:
    def test_matches_dense_oracle_tightly(self):
        rng = np.random.default_rng(5)
        net = make_net([1, 4, 1], seed=5)
        data = sinusoid_data(rng, n=5)
        x_test = rng.uniform(-3, 3, size=(3, 1))
        post = fit_parameter_space(net, data)
        mean, var = predict(post, net, x_test)
        mean_o, var_o = dense_oracle(net, data, x_test, space="parameter")
        np.testing.assert_allclose(mean, mean_o, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(var, var_o, rtol=1e-8, atol=1e-12)

    def test_woodbury_duality_across_seeds(self):
        # Means relative 1e-6; variances absolute 1e-6 on the prior scale.
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            net = make_net([2, 10, 1], seed=seed)
            x = rng.standard_normal((6, 2))
            y = rng.standard_normal((6, 1))
            data = TaskDataset(x, y, noise_variance=0.3)
            x_test = rng.standard_normal((4, 2))
            with matrix_free():
                mean_f, var_f = predict(fit_function_space(net, data), net, x_test)
            mean_p, var_p = predict(fit_parameter_space(net, data), net, x_test)
            prior_scale = float(np.max(np.diag(kernel_matrix(net, x_test)))) + data.noise_variance
            np.testing.assert_allclose(mean_p, mean_f, rtol=1e-6, atol=1e-12)
            assert np.max(np.abs(var_p - var_f)) <= 1e-6 * prior_scale

    def test_truncated_lanczos_root_is_the_basis_completion(self):
        # Rank 4 against p = 61 and n = 20: Lanczos stops far from
        # exhaustion. The one root must give the two-term variance
        # s |B'j|^2 + |j|^2 - |Q'j|^2 of the same factorization, B = Q T^-1/2.
        rng = np.random.default_rng(26)
        net = make_net([3, 12, 1], seed=26)
        x = rng.standard_normal((20, 3))
        data = TaskDataset(x, np.sin(x[:, :1]), noise_variance=0.05)
        x_test = rng.standard_normal((7, 3))
        with matrix_free(rank=4):
            _, var = predict(fit_parameter_space(net, data), net, x_test)

        jac = JacobianOperator(net, x)
        s2 = data.noise_variance
        op = SymmetricLinearOperator(
            dim=jac.param_count, base=lambda v: jac.vjp(jac.jvp(v)), shift=s2
        )
        factors = lanczos_factorize(op, jac.vjp(data.y.ravel()), 4)
        assert factors.rank == 4 and not factors.exhausted
        jt = JacobianOperator(net, x_test).dense()
        bp = lowrank_inverse_root(factors).T @ jt
        qp = factors.q.T @ jt
        col_sq = np.einsum("pj,pj->j", jt, jt)
        expected = s2 * np.einsum("rj,rj->j", bp, bp) + col_sq - np.einsum("rj,rj->j", qp, qp)
        assert np.max(np.abs(var.ravel() - expected)) <= 1e-12 * col_sq.max()

    def test_auto_space_selection(self, monkeypatch):
        ran = spy_systems(monkeypatch)
        rng = np.random.default_rng(6)
        net = make_net([1, 6, 1], seed=6)
        data = sinusoid_data(rng, n=4)
        fit_posterior(net, data)
        wide = TaskDataset(
            rng.uniform(-1, 1, (40, 1)), rng.standard_normal((40, 1)), noise_variance=0.1
        )
        smaller_p = make_net([1, 2, 1], seed=7)
        fit_posterior(smaller_p, wide)
        assert ran == ["function", "parameter"]


class TestExactFit:
    """Fits under the size limit from one eigendecomposition against the dense oracle."""

    # (dims, heteroscedastic, channels, n): kernel side, p side, kernel side
    # with n*o > 256, p side with n*o > 256, heteroscedastic mean channel on
    # each side, and three outputs on each side.
    PROBLEMS = [
        ([2, 12, 1], False, None, 20),
        ([2, 6, 1], False, None, 40),
        ([2, 24, 24, 1], False, None, 300),
        ([2, 12, 1], False, None, 300),
        ([2, 10, 1], True, (0,), 40),
        ([2, 10, 1], True, (0,), 80),
        ([2, 10, 3], False, None, 20),
        ([2, 10, 3], False, None, 40),
    ]

    @staticmethod
    def problem(dims, heteroscedastic, channels, n, seed=21):
        rng = np.random.default_rng(seed)
        net = make_net(dims, seed=seed, heteroscedastic=heteroscedastic)
        o = dims[-1] if channels is None else len(channels)
        x = rng.uniform(-2.0, 2.0, size=(n, dims[0]))
        y = np.sin(x.sum(axis=1, keepdims=True)) + 0.1 * rng.standard_normal((n, o))
        return net, TaskDataset(x, y, noise_variance=0.05), rng.uniform(-2.5, 2.5, size=(9, dims[0]))

    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("mean_kind", ["zero", "jacobian_mean", "linearized_nn"])
    def test_matches_dense_oracle_in_both_spaces(self, problem, mean_kind):
        net, data, x_test = self.problem(*problem)
        channels = problem[2]
        prior = float(np.max(np.diag(kernel_matrix(net, x_test))))
        for fit, space in ((fit_function_space, "function"), (fit_parameter_space, "parameter")):
            post = fit(net, data, mean_kind=mean_kind)
            mean, var = predict(post, net, x_test)
            mean_o, var_o = dense_oracle(net, data, x_test, mean_kind, space, channels)
            scale = float(np.max(np.abs(mean_o)))
            np.testing.assert_allclose(mean, mean_o, rtol=1e-10, atol=1e-10 * scale)
            assert np.max(np.abs(var - var_o)) <= 1e-10 * prior

    def test_exact_fits_in_both_spaces_are_one_posterior(self):
        for n in (20, 40):  # p = 25: the kernel side, then the p side
            net, data, x_test = self.problem([2, 6, 1], False, None, n)
            post_f = fit_function_space(net, data)
            post_p = fit_parameter_space(net, data)
            np.testing.assert_array_equal(post_f.mean_cache, post_p.mean_cache)
            np.testing.assert_array_equal(post_f.variance_root, post_p.variance_root)
            for got, want in zip(predict(post_p, net, x_test), predict(post_f, net, x_test)):
                np.testing.assert_array_equal(got, want)

    def test_both_gram_sides_are_factored(self):
        for n, side in ((20, "function"), (40, "parameter")):
            net, data, _ = self.problem([2, 6, 1], False, None, n)
            factor = factor_gram(net, data.x)
            p = net.architecture.parameter_count
            assert factor.side == side
            assert factor.evecs.shape == ((n, n) if side == "function" else (p, p))

    @pytest.mark.parametrize(
        "dims,heteroscedastic,channels", [([2, 6, 1], False, None), ([2, 10, 1], True, (0,))]
    )
    def test_fit_posterior_solves_on_the_factor_side(
        self, monkeypatch, dims, heteroscedastic, channels
    ):
        # n*o = p - 1, p, p + 1: the kernel side up to p, then the p side.
        ran = spy_systems(monkeypatch)
        p = make_net(dims, seed=21, heteroscedastic=heteroscedastic).architecture.parameter_count
        sides = []
        for n in (p - 1, p, p + 1):
            net, data, _ = self.problem(dims, heteroscedastic, channels, n)
            fit_posterior(net, data)
            sides.append(factor_gram(net, data.x).side)
        assert ran == sides == ["function", "function", "parameter"]

    def test_given_factor_must_be_of_the_fitted_network_and_channels(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(-2.0, 2.0, size=(6, 2))
        data = TaskDataset(x, np.sin(x[:, :1]), noise_variance=0.05)
        net = make_net([2, 8, 1], seed=0)
        other = make_net([2, 8, 1], seed=1)
        relu = MlpNetwork(
            MlpArchitecture(input_dim=2, hidden_widths=(8,), output_dim=1, activation="relu"),
            net.params,
        )
        het = make_net([2, 8, 1], seed=0, heteroscedastic=True)
        for fit in (fit_function_space, fit_parameter_space):
            for wrong in (other, relu):
                with pytest.raises(ContractViolationError, match="another network"):
                    fit(wrong, data, factor=factor_gram(net, x))
            scale = JacobianOperator(het, x, (1,))
            evals, evecs = gp_module._eigh_psd(operator_kernel(het, x, None, (1,)))
            with pytest.raises(ContractViolationError, match="other channels"):
                fit(het, data, factor=GramFactor("function", evals, evecs, scale))
            given = fit(het, data, factor=factor_gram(het, x))
            fresh = fit(het, data)
            np.testing.assert_array_equal(given.mean_cache, fresh.mean_cache)

    def test_given_factor_must_match_the_inputs(self):
        net, data, _ = self.problem([2, 6, 1], False, None, 20)
        factor = factor_gram(net, data.x[::-1])
        with pytest.raises(ContractViolationError, match="other inputs"):
            fit_function_space(net, data, factor=factor)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_weighted_factor_side_and_spectrum(self, offset):
        # B = J blockdiag(W_i') has n*k = p - 1, p, p + 1 columns: the
        # kernel side up to p, then the p side. k = 2 where n*k is even.
        net = make_net([2, 7, 3], seed=3)  # p = 45
        p = net.architecture.parameter_count
        cols = p + offset
        k = 2 if cols % 2 == 0 else 1
        rng = np.random.default_rng(cols)
        x = rng.uniform(-2.0, 2.0, size=(cols // k, 2))
        weights = rng.standard_normal((len(x), k, 3))
        jac = JacobianOperator(net, x)
        side, gram = smaller_gram(jac.mapped(weights))
        assert side == ("function" if cols <= p else "parameter")
        b = np.hstack([j_i @ w.T for j_i, w in zip(np.split(jac.dense(), len(x), axis=1), weights)])
        want = b.T @ b if side == "function" else b @ b.T
        assert np.max(np.abs(gram - want)) <= 1e-10 * np.max(np.abs(want))
        # The Gram of J weighted after the fact: blockdiag(W) K blockdiag(W')
        # on the kernel side; on the p side, B B' from the weighted blocks.
        if side == "function":
            kernel = kernel_matrix(net, jac).reshape(len(x), 3, len(x), 3)
            want = np.einsum("iac,icjd,jbd->iajb", weights, kernel, weights).reshape(cols, cols)
        assert np.linalg.norm(gram - want) <= 1e-13 * np.linalg.norm(want)

    def test_weighted_factor_of_no_inputs_is_empty(self):
        net = make_net([2, 4, 3], seed=3)
        jac = JacobianOperator(net, np.zeros((0, 2)))
        for k in (1, 2):
            side, gram = smaller_gram(jac.mapped(np.zeros((0, k, 3))))
            assert side == "function" and gram.shape == (0, 0)
        factor = factor_gram(net, jac)
        assert factor.side == "function"
        assert factor.evals.shape == (0,) and factor.evecs.shape == (0, 0)

    @staticmethod
    def count_calls(monkeypatch):
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
        return calls

    def test_sides_under_the_limit_run_no_krylov_method(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        for n in (20, 40):
            net, data, _ = self.problem([2, 6, 1], False, None, n)
            fit_posterior(net, data)
        assert calls == {"eigh": 2, "cg": 0, "lanczos": 0}

    def test_sides_over_the_limit_run_matrix_free(self, monkeypatch):
        monkeypatch.setattr(gp_module, "EXACT_FIT_LIMIT", 10)
        calls = self.count_calls(monkeypatch)
        net, data, _ = self.problem([2, 6, 1], False, None, 20)
        fit_posterior(net, data)
        assert calls["cg"] == 1 and calls["lanczos"] == 1

    def test_explicit_rank_runs_lanczos(self, monkeypatch):
        # A Lanczos root of rank 8 in each space, forced by the size limit.
        calls = self.count_calls(monkeypatch)
        net, data, _ = self.problem([2, 6, 1], False, None, 20)
        with matrix_free(8):
            fit_function_space(net, data)
            fit_parameter_space(net, data)
        assert calls["eigh"] == 2  # the small T factor of each Lanczos root
        assert calls["cg"] == 2 and calls["lanczos"] == 2

    def test_roots_over_the_dense_cap_run_matrix_free(self, monkeypatch):
        # p = 25 and n*o = 20: an exact kernel-form root would have 400 entries.
        net, data, _ = self.problem([2, 6, 1], False, None, 20)
        factor = factor_gram(net, data.x)
        monkeypatch.setattr(gp_module, "DENSE_JACOBIAN_CAP", 399)
        calls = self.count_calls(monkeypatch)
        fit_posterior(net, data, factor=factor)
        assert calls["cg"] == 1 and calls["lanczos"] == 1


class TestKernelForm:
    """Kernel-form posteriors (kernel side) and feature-form ones (p side) against the dense oracle."""

    # (dims, heteroscedastic, channels, n on the kernel side, n on the p
    # side): 3-D inputs, two outputs, and a heteroscedastic mean channel.
    PROBLEMS = [
        ([3, 9, 1], False, None, 12, 60),
        ([2, 8, 2], False, None, 9, 30),
        ([2, 10, 1], True, (0,), 12, 60),
    ]

    @pytest.mark.parametrize("dims, heteroscedastic, channels, n_kernel, n_p", PROBLEMS)
    def test_both_forms_match_dense_oracle_and_round_trip(
        self, tmp_path, dims, heteroscedastic, channels, n_kernel, n_p
    ):
        o = dims[-1] if channels is None else len(channels)
        for n in (n_kernel, n_p):
            net, data, x_test = TestExactFit.problem(dims, heteroscedastic, channels, n)
            kernel_side = n * o <= net.architecture.parameter_count
            assert kernel_side == (n == n_kernel)
            prior = float(np.max(np.diag(kernel_matrix(net, x_test))))
            mean_o, var_o = dense_oracle(net, data, x_test, "linearized_nn", "function", channels)
            # Exact fits, then Lanczos fits of full rank on their own side.
            for fit_path, tol in ((nullcontext(), 1e-10), (matrix_free(), 1e-6)):
                fit = fit_function_space if kernel_side else fit_parameter_space
                with fit_path:
                    post = fit(net, data, mean_kind="linearized_nn")
                if kernel_side:
                    assert post.inputs.shape == (n, dims[0])
                    assert post.variance_root.shape[0] == n * o
                else:
                    assert post.inputs is None
                    assert post.variance_root.shape[0] == net.architecture.parameter_count
                path = tmp_path / "post.npz"
                save_posterior(post, path)
                loaded = load_posterior(path)
                mean, var = predict(post, net, x_test)
                for got, want in zip(predict(loaded, net, x_test), (mean, var)):
                    np.testing.assert_array_equal(got, want)
                scale = float(np.max(np.abs(mean_o)))
                np.testing.assert_allclose(mean, mean_o, rtol=tol, atol=tol * scale)
                assert np.max(np.abs(var - var_o)) <= tol * prior

    def test_kernel_side_fit_and_predict_build_no_dense_jacobian(self, monkeypatch):
        net, data, x_test = TestExactFit.problem([2, 10, 1], True, (0,), 12)
        sizes = count_dense_blocks(monkeypatch)
        for fit_path in (nullcontext(), matrix_free(rank=6)):
            with fit_path:
                post = fit_posterior(net, data)
            predict(post, net, x_test)
            assert post.inputs is not None
        assert sizes == []

    def test_version_2_file_is_refused(self, tmp_path):
        # A version-2 file stored the kernel side's root as J V (E + s)^-1/2,
        # p x n*o, with no form; this reader no longer takes it.
        net, data, _ = TestExactFit.problem([2, 8, 2], False, None, 9)
        post = fit_posterior(net, data, mean_kind="linearized_nn")
        root = JacobianOperator(net, data.x).dense() @ post.variance_root
        path = tmp_path / "v2.npz"
        save_posterior(post, path)
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
        del meta["form"]
        meta["version"] = 2
        np.savez(path, meta=np.array(json.dumps(meta)), mean_cache=post.mean_cache,
                 variance_root=root)
        with pytest.raises(ConfigError, match=f"{path}: unsupported posterior file version 2"):
            load_posterior(path)

    def test_mismatched_posterior_arrays_are_contract_violations(self):
        net, data, x_test = TestExactFit.problem([2, 8, 2], False, None, 9)
        kernel = fit_posterior(net, data)
        with matrix_free(rank=4):
            feature = fit_parameter_space(net, data)
        assert kernel.inputs is not None and feature.inputs is None
        bad = [
            (replace(feature, variance_root=feature.variance_root[1:]), "variance_root"),
            (replace(kernel, variance_root=kernel.variance_root[1:]), "variance_root"),
            (replace(kernel, inputs=kernel.inputs[1:]), "variance_root"),
            (replace(kernel, inputs=kernel.inputs[:, :1]), "inputs"),
            (replace(kernel, inputs=kernel.inputs.ravel()), "inputs"),
        ]
        for post, name in bad:
            with pytest.raises(ContractViolationError, match=name):
                predict(post, net, x_test)


class TestPredict:
    def test_stale_parameters_rejected(self):
        rng = np.random.default_rng(7)
        net = make_net([1, 5, 1], seed=8)
        data = sinusoid_data(rng, n=4)
        with matrix_free():
            post = fit_function_space(net, data)
        moved = net.with_params(net.params + 1e-3)
        with pytest.raises(ConsistencyError, match="stale"):
            predict(post, moved, data.x)

    def test_variance_grows_away_from_data(self):
        rng = np.random.default_rng(8)
        net = make_net([1, 16, 1], seed=9)
        data = sinusoid_data(rng, n=8)
        with matrix_free():
            post = fit_function_space(net, data)
        _, var_near = predict(post, net, data.x[:1])
        _, var_far = predict(post, net, np.array([[25.0]]))
        assert var_far[0, 0] > var_near[0, 0]

    def test_variance_within_prior_band(self):
        rng = np.random.default_rng(9)
        net = make_net([2, 8, 2], seed=10)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        data = TaskDataset(x, y, noise_variance=0.2)
        x_test = rng.standard_normal((6, 2))
        prior = np.diag(kernel_matrix(net, x_test)).reshape(6, 2)
        with matrix_free(rank=4):
            function_post = fit_function_space(net, data)
        with matrix_free(rank=40):
            parameter_post = fit_parameter_space(net, data)
        for post in (function_post, parameter_post):
            _, var = predict(post, net, x_test)
            assert np.all(var >= 0.0)
            assert np.all(var <= prior + 1e-8)

    def test_truncated_rank_is_conservative(self):
        # A truncated variance cache may only overestimate: the reported
        # variance sits between the exact posterior and the prior.
        rng = np.random.default_rng(10)
        net = make_net([1, 10, 1], seed=11)
        data = sinusoid_data(rng, n=10)
        x_test = rng.uniform(-3, 3, size=(5, 1))
        _, var_exact = dense_oracle(net, data, x_test, space="function")
        with matrix_free(rank=3):
            _, var_trunc = predict(fit_function_space(net, data), net, x_test)
        assert np.all(var_trunc >= var_exact - 1e-10)
        prior = np.diag(kernel_matrix(net, x_test)).reshape(5, 1)
        assert np.all(var_trunc <= prior + 1e-10)

    def test_mean_reverts_to_prior_at_huge_noise(self):
        rng = np.random.default_rng(11)
        net = make_net([1, 6, 1], seed=12)
        x = rng.uniform(-2, 2, (5, 1))
        y = rng.standard_normal((5, 1))
        x_test = rng.uniform(-2, 2, (3, 1))
        for kind in ("zero", "jacobian_mean", "linearized_nn"):
            data = TaskDataset(x, y, noise_variance=1e12)
            with matrix_free():
                post = fit_function_space(net, data, mean_kind=kind)
            mean, _ = predict(post, net, x_test)
            jac = JacobianOperator(net, x_test)
            if kind == "zero":
                mu = np.zeros((3, 1))
            elif kind == "jacobian_mean":
                mu = jac.jvp(net.params).reshape(3, 1)
            else:
                mu = jac.outputs + jac.jvp(net.params).reshape(3, 1)
            np.testing.assert_allclose(mean, mu, atol=1e-6)

    def test_adding_training_point_does_not_raise_its_variance(self):
        rng = np.random.default_rng(12)
        net = make_net([1, 8, 1], seed=13)
        data = sinusoid_data(rng, n=6)
        x_star = np.array([[0.77]])
        with matrix_free():
            _, var_before = predict(fit_function_space(net, data), net, x_star)
        grown = TaskDataset(
            np.vstack([data.x, x_star]),
            np.vstack([data.y, [[0.4]]]),
            noise_variance=data.noise_variance,
        )
        with matrix_free():
            _, var_after = predict(fit_function_space(net, grown), net, x_star)
        assert var_after[0, 0] <= var_before[0, 0] + 1e-10


class TestChunkedPredict:
    def test_chunked_variances_match_one_chunk_and_columns(self, monkeypatch):
        rng = np.random.default_rng(23)
        net = make_net([2, 16, 1], seed=23, heteroscedastic=True)
        x = rng.standard_normal((6, 2))
        x_test = rng.standard_normal((9, 2))
        data = TaskDataset(x, rng.standard_normal((6, 1)), noise_variance=0.1)
        # Both exact fits are in kernel form here; the rank-8
        # matrix-free parameter-space fit is in feature form.
        for fit, fit_path in ((fit_function_space, nullcontext()),
                             (fit_parameter_space, nullcontext()),
                             (fit_parameter_space, matrix_free(rank=8))):
            with fit_path:
                post = fit(net, data, mean_kind="linearized_nn")
            mean_one, var_one = predict(post, net, x_test)
            if post.inputs is None:
                # Dense query blocks of at most 3 data.
                arch = net.architecture
                cap = 3 * arch.parameter_count * arch.internal_output_dim
                sizes = count_dense_blocks(monkeypatch)
            else:
                # Cross kernels of at most 3 query rows.
                o = post.variance_root.shape[0] // len(x)
                cap = 3 * len(x) * o * o
                sizes = count_cross_kernel_rows(monkeypatch)
            monkeypatch.setattr(gp_module, "DENSE_JACOBIAN_CAP", cap)
            mean, var = predict(post, net, x_test)
            monkeypatch.undo()
            assert max(sizes) <= 3 and len(sizes) >= 3
            scale = float(np.max(np.diag(kernel_matrix(net, x_test))))
            np.testing.assert_array_equal(mean, mean_one)
            np.testing.assert_allclose(var, var_one, rtol=1e-12, atol=1e-12 * scale)
            ref = matrix_free_variances(post, net, x_test)
            np.testing.assert_allclose(var, ref, rtol=1e-12, atol=1e-12 * scale)

    def test_one_sensitivity_pass_per_query_chunk(self, monkeypatch):
        # The chunk's cross kernel and its prior variances share one pass
        # over the query rows; the stored inputs take one pass per chunk.
        rng = np.random.default_rng(25)
        net = make_net([2, 16, 8, 2], seed=25)
        data = TaskDataset(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)), 0.1)
        post = fit_function_space(net, data)
        x_test = rng.standard_normal((9, 2))
        passes = []
        original = JacobianOperator.layer_sensitivities

        def spy(self):
            passes.append(self.n_data)
            return original(self)

        monkeypatch.setattr(JacobianOperator, "layer_sensitivities", spy)
        mean_one, var_one = predict(post, net, x_test)
        assert passes == [6, 9]
        passes.clear()
        monkeypatch.setattr(gp_module, "DENSE_JACOBIAN_CAP", 4 * 12 * 2)  # chunks of 4 query rows
        mean, var = predict(post, net, x_test)
        assert passes == [6, 4, 6, 4, 6, 1]
        np.testing.assert_array_equal(mean, mean_one)
        np.testing.assert_allclose(var, var_one, rtol=1e-12, atol=1e-14)

    def test_empty_batch(self):
        rng = np.random.default_rng(24)
        net = make_net([2, 6, 2], seed=24)
        data = TaskDataset(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)), 0.1)
        for fit in (fit_function_space, fit_parameter_space):
            mean, var = predict(fit(net, data), net, np.zeros((0, 2)))
            assert mean.shape == (0, 2) and var.shape == (0, 2)


class TestChannelSelectedJacobian:
    def test_products_match_selected_columns(self):
        rng = np.random.default_rng(25)
        net = make_net([2, 8, 2], seed=25, heteroscedastic=True)
        x = rng.standard_normal((5, 2))
        full = JacobianOperator(net, x)
        for channels in ((0,), (2,), (3, 0), (1, 2, 0)):
            jac = JacobianOperator(net, x, channels)
            j = select_columns(full.dense(), full.out_dim, channels)
            assert jac.out_dim == len(channels) and jac.out_len == 5 * len(channels)
            np.testing.assert_array_equal(jac.dense(), j)
            np.testing.assert_array_equal(jac.outputs, full.outputs[:, list(channels)])
            for _ in range(3):
                u = rng.standard_normal(jac.out_len)
                v = rng.standard_normal(jac.param_count)
                np.testing.assert_allclose(jac.vjp(u), j @ u, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(jac.jvp(v), j.T @ v, rtol=1e-10, atol=1e-12)

    def test_invalid_channels_rejected(self):
        net = make_net([2, 6, 1], seed=26, heteroscedastic=True)
        for channels in ((), (0, 0), (2,), (-1,)):
            with pytest.raises(ContractViolationError, match="channel"):
                JacobianOperator(net, np.ones((3, 2)), channels)


class TestHeteroscedasticChannels:
    def test_mean_channel_fit_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        net = make_net([2, 8, 1], seed=14, heteroscedastic=True)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 1))
        data = TaskDataset(x, y, noise_variance=0.2)
        x_test = rng.standard_normal((3, 2))
        with matrix_free():
            post = fit_function_space(net, data)
        mean, var = predict(post, net, x_test)
        mean_o, var_o = dense_oracle(net, data, x_test, space="function", channels=(0,))
        np.testing.assert_allclose(mean, mean_o, rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(var, var_o, rtol=1e-6, atol=1e-10)

    def test_channel_count_must_match_targets(self):
        # Targets as wide as the (mean, scale) outputs, not the mean view.
        rng = np.random.default_rng(14)
        net = make_net([2, 6, 1], seed=15, heteroscedastic=True)
        data = TaskDataset(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)), 0.1)
        with pytest.raises(ContractViolationError, match="2 channels but the regression view has 1"):
            fit_function_space(net, data)

    # p = 74 and o = 2: n*o = 12 on the kernel side, 80 on the p side.
    @pytest.mark.parametrize("n", [6, 40])
    def test_two_output_mean_view_matches_dense_oracle_on_both_sides(self, n):
        # Targets as wide as output_dim regress on the mean columns 0 and 2
        # of the (mean, scale) pairs, with no channel argument anywhere.
        rng = np.random.default_rng(31)
        net = make_net([2, 10, 2], seed=31, heteroscedastic=True)
        p, mean_columns = net.architecture.parameter_count, (0, 2)
        x = rng.uniform(-2.0, 2.0, size=(n, 2))
        data = TaskDataset(x, np.sin(x) + 0.1 * rng.standard_normal((n, 2)), noise_variance=0.05)
        x_test = rng.uniform(-2.5, 2.5, size=(7, 2))
        j = select_columns(JacobianOperator(net, x).dense(), 4, mean_columns)
        jt = select_columns(JacobianOperator(net, x_test).dense(), 4, mean_columns)
        for got, want in ((kernel_matrix(net, x), j.T @ j), (kernel_matrix(net, x, x_test), j.T @ jt)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        post = fit_posterior(net, data, mean_kind="linearized_nn")
        assert net.architecture.regression_channels == mean_columns
        assert (post.inputs is not None) == (2 * n <= p)
        mean, var = predict(post, net, x_test)
        mean_o, var_o = dense_oracle(net, data, x_test, "linearized_nn", "function", mean_columns)
        prior = float(np.max(np.einsum("pj,pj->j", jt, jt)))
        np.testing.assert_allclose(mean, mean_o, rtol=1e-10, atol=1e-10 * np.max(np.abs(mean_o)))
        assert np.max(np.abs(var - var_o)) <= 1e-10 * prior
        got = log_marginal_likelihood(net, data, mean_kind="linearized_nn")
        expected = dense_log_marginal(net, data, "linearized_nn", mean_columns)
        assert abs(got - expected) <= 1e-10 * abs(expected)


def dense_log_marginal(network, data, mean_kind="zero", channels=None):
    """log N(y; mu(X), J'J + s I) from an explicit Jacobian and slogdet."""
    full_o = network.architecture.internal_output_dim
    jac = JacobianOperator(network, data.x)
    j = select_columns(jac.dense(), full_o, channels)
    outputs = jac.outputs if channels is None else jac.outputs[:, list(channels)]
    mu = {
        "zero": np.zeros(j.shape[1]),
        "jacobian_mean": j.T @ network.params,
        "linearized_nn": outputs.ravel() + j.T @ network.params,
    }[mean_kind]
    resid = data.y.ravel() - mu
    cov = j.T @ j + data.noise_variance * np.eye(j.shape[1])
    return -0.5 * (
        resid @ np.linalg.solve(cov, resid)
        + np.linalg.slogdet(cov)[1]
        + resid.size * math.log(2 * math.pi)
    )


class TestLogMarginalLikelihood:
    def test_three_point_dense_oracle(self):
        rng = np.random.default_rng(16)
        net = make_net([1, 8, 1], seed=17)
        data = sinusoid_data(rng, n=3)
        got = log_marginal_likelihood(net, data)
        j = JacobianOperator(net, data.x).dense()
        cov = j.T @ j + data.noise_variance * np.eye(3)
        resid = data.y.ravel()
        expected = -0.5 * (
            resid @ np.linalg.solve(cov, resid)
            + np.linalg.slogdet(cov)[1]
            + 3 * math.log(2 * math.pi)
        )
        assert abs(got - expected) <= 1e-6 * abs(expected)

    # (dims, heteroscedastic, channels, n, mean kind): each pair is the
    # kernel side, then the p side with n*o > p (p = 25, 52 and 62).
    PROBLEMS = [
        ([2, 6, 1], False, None, 20, "zero"),
        ([2, 6, 1], False, None, 40, "jacobian_mean"),
        ([2, 10, 1], True, (0,), 40, "linearized_nn"),
        ([2, 10, 1], True, (0,), 80, "linearized_nn"),
        ([2, 10, 2], False, None, 20, "linearized_nn"),
        ([2, 10, 2], False, None, 40, "zero"),
    ]

    @pytest.mark.parametrize("dims, heteroscedastic, channels, n, mean_kind", PROBLEMS)
    def test_exact_path_matches_slogdet_oracle_on_both_sides(
        self, dims, heteroscedastic, channels, n, mean_kind
    ):
        net, data, _ = TestExactFit.problem(dims, heteroscedastic, channels, n)
        o = dims[-1] if channels is None else len(channels)
        p = net.architecture.parameter_count
        side = factor_gram(net, data.x).side
        assert side == ("function" if n * o <= p else "parameter")
        got = log_marginal_likelihood(net, data, mean_kind=mean_kind)
        expected = dense_log_marginal(net, data, mean_kind, channels)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_exact_path_runs_no_krylov_method(self, monkeypatch):
        calls = TestExactFit.count_calls(monkeypatch)
        for n in (20, 40):
            net, data, _ = TestExactFit.problem([2, 6, 1], False, None, n)
            log_marginal_likelihood(net, data)
        assert calls == {"eigh": 2, "cg": 0, "lanczos": 0}

    def test_lanczos_path_tracks_dense_path(self, monkeypatch):
        rng = np.random.default_rng(17)
        net = make_net([1, 10, 1], seed=18)
        data = sinusoid_data(rng, n=40)
        exact = log_marginal_likelihood(net, data)
        monkeypatch.setattr(gp_module, "DENSE_LOG_MARGINAL_LIMIT", 0)
        approx = log_marginal_likelihood(net, data, rank=40, n_probes=64)
        assert abs(approx - exact) <= 0.05 * abs(exact)

    def test_lanczos_path_deterministic(self, monkeypatch):
        rng = np.random.default_rng(18)
        net = make_net([1, 6, 1], seed=19)
        data = sinusoid_data(rng, n=12)
        monkeypatch.setattr(gp_module, "DENSE_LOG_MARGINAL_LIMIT", 0)
        calls = TestExactFit.count_calls(monkeypatch)
        a = log_marginal_likelihood(net, data, rank=8, n_probes=4)
        b = log_marginal_likelihood(net, data, rank=8, n_probes=4)
        assert a == b
        assert calls["cg"] == 2


class TestPosteriorSerialization:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(19)
        net = make_net([1, 7, 1], seed=20)
        data = sinusoid_data(rng, n=6)
        x_test = rng.uniform(-2, 2, (4, 1))
        for fit in (fit_function_space, fit_parameter_space):
            with matrix_free(rank=6):
                post = fit(net, data, mean_kind="linearized_nn")
            path = tmp_path / f"{fit.__name__}.npz"
            save_posterior(post, path)
            loaded = load_posterior(path)
            mean_a, var_a = predict(post, net, x_test)
            mean_b, var_b = predict(loaded, net, x_test)
            np.testing.assert_array_equal(mean_a, mean_b)
            np.testing.assert_array_equal(var_a, var_b)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        # The archive streams into a temp file that replaces the cache only once written whole.
        rng = np.random.default_rng(23)
        post = fit_posterior(make_net([1, 7, 1], seed=23), sinusoid_data(rng, n=6), mean_kind="linearized_nn")
        path = tmp_path / "post.npz"
        save_posterior(post, path)
        before = path.read_bytes()
        savez = np.savez

        def partial_savez(file, **arrays):
            savez(file, **arrays)
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", partial_savez)
        with pytest.raises(OSError, match="disk full"):
            save_posterior(post, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["post.npz"]

    def test_file_with_a_stored_space_still_loads(self, tmp_path):
        # Files once stored the requested space and the regression view
        # next to the same arrays; such a file still loads and predicts the same.
        rng = np.random.default_rng(27)
        net = make_net([1, 7, 1], seed=27)
        post = fit_posterior(net, sinusoid_data(rng, n=6), mean_kind="linearized_nn")
        x_test = rng.uniform(-2, 2, (4, 1))
        path = tmp_path / "post.npz"
        save_posterior(post, path)
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
        assert "space" not in meta and "channels" not in meta
        for space in ("function", "parameter"):
            old_meta = json.dumps({**meta, "space": space, "channels": None}, sort_keys=True)
            np.savez(path, meta=np.array(old_meta), mean_cache=post.mean_cache,
                     variance_root=post.variance_root, inputs=post.inputs)
            loaded = load_posterior(path)
            np.testing.assert_array_equal(loaded.mean_cache, post.mean_cache)
            np.testing.assert_array_equal(loaded.variance_root, post.variance_root)
            for got, want in zip(predict(loaded, net, x_test), predict(post, net, x_test)):
                np.testing.assert_array_equal(got, want)

    def test_stored_channels_are_ignored(self, tmp_path):
        # The network, not the file, gives the regression view: a feature-form
        # file of a 2-output net whose stored channels name one output still
        # predicts both, as the untampered file does.
        rng = np.random.default_rng(29)
        net = make_net([2, 4, 2], seed=29)  # p = 22 < n*o = 24
        post = fit_posterior(net, TaskDataset(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)), 0.1))
        assert post.inputs is None
        x_test = rng.standard_normal((5, 2))
        path = tmp_path / "post.npz"
        save_posterior(post, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays["meta"]))
        arrays["meta"] = np.array(json.dumps({**meta, "channels": [1]}, sort_keys=True))
        np.savez(path, **arrays)
        mean, var = predict(load_posterior(path), net, x_test)
        assert mean.shape == var.shape == (5, 2)
        for got, want in zip((mean, var), predict(post, net, x_test)):
            np.testing.assert_array_equal(got, want)

    def test_kernel_form_file_without_inputs_is_refused(self, tmp_path):
        rng = np.random.default_rng(28)
        net = make_net([1, 7, 1], seed=28)
        post = fit_posterior(net, sinusoid_data(rng, n=6))
        path = tmp_path / "post.npz"
        save_posterior(post, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        assert json.loads(str(arrays["meta"]))["form"] == "kernel"
        del arrays["inputs"]
        np.savez(path, **arrays)
        with pytest.raises(ConfigError, match="'inputs'"):
            load_posterior(path)

    def test_version_check(self, tmp_path):
        rng = np.random.default_rng(20)
        net = make_net([1, 5, 1], seed=21)
        with matrix_free():
            post = fit_function_space(net, sinusoid_data(rng, n=3))
        path = tmp_path / "post.npz"
        save_posterior(post, path)
        import json as _json

        import numpy as _np

        with _np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = _json.loads(str(arrays["meta"]))
        # Version 1 stored a parameter-space root with a second basis, which
        # the one variance formula would read as wrong variances.
        for version in (1, 99):
            meta["version"] = version
            arrays["meta"] = _np.array(_json.dumps(meta))
            _np.savez(path, **arrays)
            with pytest.raises(ConfigError, match="version"):
                load_posterior(path)


class TestCholeskySolve:
    # p of the net whose p square Gram is m square, for each m on the p side.
    PARAMETER_SIDE_NETS = {47: [2, 9, 2], 48: [1, 9, 3], 49: [2, 12, 1], 240: [1, 7, 25, 1]}

    @staticmethod
    def shifted_gram(m, side, seed):
        """lam I + the Gram of a Fisher-like B = J blockdiag(W_i'), m square on ``side``."""
        rng = np.random.default_rng(seed)
        if side == "function":
            net, cols = make_net([2, 16, 16, 1], seed), m  # p = 337 >= m
        else:
            net = make_net(TestCholeskySolve.PARAMETER_SIDE_NETS[m], seed)
            cols = m + 10
        x = rng.uniform(-2.0, 2.0, size=(cols, net.architecture.input_dim))
        weights = rng.standard_normal((cols, 1, net.architecture.output_dim))
        got, gram = smaller_gram(JacobianOperator(net, x).mapped(weights))
        assert got == side and gram.shape == (m, m)
        gram[np.diag_indices(m)] += 0.5
        return gram

    @staticmethod
    def square_solve(factor, rhs):
        """The blocked substitutions of ``cholesky_solve`` on the m square factor: the reference."""
        x = np.array(rhs, dtype=np.float64)
        starts = range(0, len(factor), CHOLESKY_BLOCK)
        for i in starts:
            j = i + CHOLESKY_BLOCK
            x[i:j] = np.linalg.solve(factor[i:j, i:j], x[i:j] - factor[i:j, :i] @ x[:i])
        for i in reversed(starts):
            j = i + CHOLESKY_BLOCK
            x[i:j] = np.linalg.solve(factor[i:j, i:j].T, x[i:j])
            x[:i] -= factor[i:j, :i].T @ x[i:j]
        return x

    @staticmethod
    def check_solve(gram, rhs):
        factor = gram_cholesky(gram)
        square = np.linalg.cholesky(gram)
        # Row panels of 48 rows, each up to the end of its diagonal block.
        starts = range(0, len(gram), CHOLESKY_BLOCK)
        assert len(factor) == len(starts)
        for i, panel in zip(starts, factor):
            assert np.array_equal(panel, square[i : i + CHOLESKY_BLOCK, : i + CHOLESKY_BLOCK])
        assert [panel.shape for panel in factor] == panel_shapes(len(gram))
        kept_factor, kept_rhs = [panel.copy() for panel in factor], rhs.copy()
        x = cholesky_solve(factor, rhs)
        assert all(map(np.array_equal, factor, kept_factor)) and np.array_equal(rhs, kept_rhs)
        assert np.array_equal(x, TestCholeskySolve.square_solve(square, rhs))
        # Backward stable: the residual is at roundoff in the scale of |G| |x|.
        assert np.linalg.norm(gram @ x - rhs) <= 1e-13 * np.linalg.norm(gram, 2) * np.linalg.norm(x)
        lu = np.linalg.solve(gram, rhs)
        assert np.linalg.norm(x - lu) <= 1e-13 * np.linalg.cond(gram) * np.linalg.norm(lu)

    @pytest.mark.parametrize(
        "m, side",
        [(m, "function") for m in (1, 47, 48, 49, 240, 300)] + [(m, "parameter") for m in (47, 48, 49, 240)],
    )
    def test_solve_matches_lu_on_both_gram_sides(self, m, side):
        # One block short of, at, and one entry past gp.CHOLESKY_BLOCK = 48;
        # 300 ends in a short panel after six full ones.
        gram = self.shifted_gram(m, side, seed=m)
        self.check_solve(gram, np.random.default_rng(m + 1).standard_normal(m))

    @pytest.mark.parametrize("m", [49, 240])
    def test_stiff_solve_is_backward_stable(self, m):
        rng = np.random.default_rng(m)
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        gram = (basis * np.logspace(-8, 0, m)) @ basis.T
        gram = (gram + gram.T) / 2.0
        assert 1e7 < np.linalg.cond(gram) < 1e9
        self.check_solve(gram, rng.standard_normal(m))

    def test_panels_are_checked_in_every_diagonal_block(self):
        # 100 = 48 + 48 + 4: each tamper lands in a block past the first.
        factor = gram_cholesky(self.shifted_gram(100, "function", seed=3))
        check_cholesky_panels(factor)
        for k, index, value, reason in [
            (1, (0, 49), 1e-3, "a nonzero entry above a diagonal block's diagonal"),
            (2, (3, 99), 0.0, "a diagonal entry that is not positive"),
            (2, (1, 97), -1.0, "a diagonal entry that is not positive"),
            (1, (5, 2), np.inf, "non-finite factor entries"),
        ]:
            panels = [panel.copy() for panel in factor]
            panels[k][index] = value
            with pytest.raises(ContractViolationError, match=reason):
                check_cholesky_panels(panels)

    def test_factor_breakdown_is_typed(self):
        with pytest.raises(NumericBreakdownError, match="Cholesky factorization of the 2 x 2 Gram matrix failed"):
            gram_cholesky(np.diag([1.0, -1.0]))
        with pytest.raises(NumericBreakdownError, match="the 2 x 2 Gram matrix has non-finite entries"):
            gram_cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))
