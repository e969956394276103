import numpy as np
import pytest

from tangentgp.errors import ContractViolationError
from tangentgp.fisher import (
    CategoricalLikelihood,
    FvpConfig,
    GaussianLikelihood,
    exact_fvp,
    fd_fvp,
    fvp_error_sweep,
    kl_divergence,
    sweep_csv,
)
from tangentgp.gp import fit_parameter_space
from tangentgp.linalg import SymmetricLinearOperator, cg_solve
from tangentgp.net import (
    JacobianOperator,
    MlpArchitecture,
    MlpNetwork,
    TaskDataset,
    init_network,
)


def seeded_net(dims, activation="tanh", seed=0, bias_offset=0.0):
    arch = MlpArchitecture(dims[0], tuple(dims[1:-1]), dims[-1], activation=activation)
    net = init_network(arch, seed=seed)
    if bias_offset:
        params = net.params.copy()
        params[-arch.output_dim:] += bias_offset
        net = net.with_params(params)
    return net


class TestKlDivergence:
    def test_identical_outputs_gaussian(self):
        out = np.array([[1.5], [-0.2], [0.7]])
        assert kl_divergence(GaussianLikelihood(0.3), out, out) == 0.0

    def test_identical_outputs_categorical(self):
        out = np.array([[0.2, -1.0, 0.5], [2.0, 2.0, 2.0]])
        assert kl_divergence(CategoricalLikelihood(3), out, out) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_hand_value(self):
        # (1 - 0)^2 / (2 * 0.5) = 1
        value = kl_divergence(GaussianLikelihood(0.5), np.array([[1.0]]), np.array([[0.0]]))
        assert value == pytest.approx(1.0, rel=1e-15)

    def test_gaussian_sums_over_data_and_channels(self):
        like = GaussianLikelihood(2.0)
        p = np.array([[1.0, 2.0], [3.0, 4.0]])
        q = np.array([[0.0, 0.0], [0.0, 0.0]])
        expected = (1 + 4 + 9 + 16) / 4.0
        assert kl_divergence(like, p, q) == pytest.approx(expected, rel=1e-15)

    def test_categorical_hand_value(self):
        # p = softmax(0, 0) = (1/2, 1/2); q = softmax(ln 3, 0) = (3/4, 1/4)
        # KL = 0.5 ln(0.5/0.75) + 0.5 ln(0.5/0.25) = 0.5 ln(4/3)
        value = kl_divergence(
            CategoricalLikelihood(2),
            np.array([[0.0, 0.0]]),
            np.array([[np.log(3.0), 0.0]]),
        )
        assert value == pytest.approx(0.5 * np.log(4.0 / 3.0), rel=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(11)
        like = CategoricalLikelihood(4)
        for _ in range(200):
            p = rng.standard_normal((5, 4)) * 3.0
            q = rng.standard_normal((5, 4)) * 3.0
            assert kl_divergence(like, p, q) >= -1e-12

    def test_gaussian_grad_matches_numeric(self):
        rng = np.random.default_rng(3)
        like = GaussianLikelihood(0.7)
        p = rng.standard_normal((3, 2))
        q = rng.standard_normal((3, 2))
        _, grad = kl_divergence(like, p, q, grad=True)
        h = 1e-6
        for i in range(3):
            for j in range(2):
                bump = np.zeros_like(q)
                bump[i, j] = h
                numeric = (
                    kl_divergence(like, p, q + bump) - kl_divergence(like, p, q - bump)
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(numeric, rel=1e-6, abs=1e-9)

    def test_categorical_grad_matches_numeric(self):
        # The value already treats the first argument's probabilities as
        # constants, so a plain numeric derivative in q checks the
        # stop-gradient convention as well as the formula.
        rng = np.random.default_rng(4)
        like = CategoricalLikelihood(3)
        p = rng.standard_normal((2, 3))
        q = rng.standard_normal((2, 3))
        _, grad = kl_divergence(like, p, q, grad=True)
        h = 1e-6
        for i in range(2):
            for j in range(3):
                bump = np.zeros_like(q)
                bump[i, j] = h
                numeric = (
                    kl_divergence(like, p, q + bump) - kl_divergence(like, p, q - bump)
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolationError, match="shapes"):
            kl_divergence(GaussianLikelihood(1.0), np.zeros((2, 1)), np.zeros((3, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolationError, match="non-finite"):
            kl_divergence(GaussianLikelihood(1.0), np.array([[np.nan]]), np.zeros((1, 1)))

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ContractViolationError, match="classes|columns"):
            kl_divergence(CategoricalLikelihood(3), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_bad_likelihood_parameters_rejected(self):
        with pytest.raises(ContractViolationError):
            GaussianLikelihood(0.0)
        with pytest.raises(ContractViolationError):
            CategoricalLikelihood(1)


class TestExactFvp:
    def test_gaussian_matches_dense_gram(self):
        net = seeded_net((1, 8, 1), seed=2)
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(6, 1))
        v = rng.standard_normal(net.architecture.parameter_count)
        jac = JacobianOperator(net, x)
        dense = jac.dense()
        sigma2 = 0.25
        expected = dense @ (dense.T @ v) / (6 * sigma2)
        got = exact_fvp(net, x, v, GaussianLikelihood(sigma2))
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_categorical_matches_dense_blocks(self):
        net = seeded_net((1, 4, 2), seed=5)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(5, 1))
        v = rng.standard_normal(net.architecture.parameter_count)
        jac = JacobianOperator(net, x)
        dense = jac.dense()
        logits = jac.outputs
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        expected = np.zeros_like(v)
        for i in range(5):
            block = dense[:, 2 * i : 2 * i + 2]
            h = np.diag(probs[i]) - np.outer(probs[i], probs[i])
            expected += block @ (h @ (block.T @ v))
        expected /= 5
        got = exact_fvp(net, x, v, CategoricalLikelihood(2))
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-14)

    def test_zero_vector_maps_to_zero(self):
        net = seeded_net((2, 6, 1), seed=0)
        x = np.zeros((3, 2))
        out = exact_fvp(net, x, np.zeros(net.architecture.parameter_count), GaussianLikelihood(1.0))
        assert np.all(out == 0.0)

    def test_wrong_length_rejected(self):
        net = seeded_net((1, 4, 1), seed=0)
        with pytest.raises(ContractViolationError, match="length"):
            exact_fvp(net, np.zeros((2, 1)), np.zeros(3), GaussianLikelihood(1.0))


class TestFdFvp:
    def test_gaussian_close_to_exact(self):
        net = seeded_net((1, 16, 1), seed=7)
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, size=(10, 1))
        v = rng.standard_normal(net.architecture.parameter_count)
        v /= np.linalg.norm(v)
        like = GaussianLikelihood(1.0)
        exact = exact_fvp(net, x, v, like)
        approx = fd_fvp(net, x, v, like, FvpConfig(1e-4))
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) <= 1e-2

    def test_categorical_close_to_exact(self):
        net = seeded_net((2, 12, 2), seed=8)
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=(10, 2))
        v = rng.standard_normal(net.architecture.parameter_count)
        v /= np.linalg.norm(v)
        like = CategoricalLikelihood(2)
        exact = exact_fvp(net, x, v, like)
        approx = fd_fvp(net, x, v, like, FvpConfig(1e-4))
        assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) <= 1e-2

    def test_zero_vector_is_exact(self):
        net = seeded_net((1, 5, 1), seed=1)
        out = fd_fvp(net, np.ones((2, 1)), np.zeros(net.architecture.parameter_count),
                     GaussianLikelihood(1.0))
        assert np.all(out == 0.0)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ContractViolationError, match="epsilon"):
            FvpConfig(1e-9)
        with pytest.raises(ContractViolationError, match="epsilon"):
            FvpConfig(0.2)
        FvpConfig(1e-8)
        FvpConfig(1e-1)

    def test_taylor_remainder_on_bilinear_model(self):
        # f(x; w1, b1, w2, b2) = w2 (w1 x + b1) + b2 is exactly quadratic
        # in theta, so the finite-difference error has a closed form:
        # fd - exact = eps (q J + (J v) dJ) + eps^2 q dJ with
        # q = v_w2 (v_w1 x + v_b1) and dJ the Jacobian's directional change.
        w1, b1, w2, b2 = 0.7, -0.3, 1.1, 0.2
        x0 = 0.9
        arch = MlpArchitecture(1, (1,), 1, activation="identity")
        net = MlpNetwork(arch, np.array([w1, b1, w2, b2]))
        x = np.array([[x0]])
        like = GaussianLikelihood(1.0)
        v = np.array([1.0, -0.5, 0.8, 0.3])
        v /= np.linalg.norm(v)
        jac_row = np.array([w2 * x0, w2, w1 * x0 + b1, 1.0])
        exact = jac_row * (jac_row @ v)
        np.testing.assert_allclose(exact_fvp(net, x, v, like), exact, rtol=1e-12)
        q = v[2] * (v[0] * x0 + v[1])
        d_jac = np.array([v[2] * x0, v[2], v[0] * x0 + v[1], 0.0])
        norm_exact = np.linalg.norm(exact)
        for eps in (1e-2, 1e-3):
            predicted_vec = eps * (q * jac_row + (jac_row @ v) * d_jac) + eps**2 * q * d_jac
            predicted = np.linalg.norm(predicted_vec) / norm_exact
            approx = fd_fvp(net, x, v, like, FvpConfig(eps))
            measured = np.linalg.norm(approx - exact) / norm_exact
            assert measured == pytest.approx(predicted, rel=0.1)


class TestErrorSweep:
    def test_deterministic_for_fixed_seed(self):
        net = seeded_net((1, 8, 1), seed=3)
        x = np.linspace(-2, 2, 6).reshape(-1, 1)
        like = GaussianLikelihood(1.0)
        a = fvp_error_sweep(net, x, like, (1e-3, 1e-5), num_probes=4, seed=9)
        b = fvp_error_sweep(net, x, like, (1e-3, 1e-5), num_probes=4, seed=9)
        assert a == b

    def test_mean_bounded_by_max(self):
        net = seeded_net((1, 8, 1), seed=3)
        x = np.linspace(-2, 2, 6).reshape(-1, 1)
        sweep = fvp_error_sweep(net, x, GaussianLikelihood(1.0), (1e-2, 1e-4), num_probes=6, seed=0)
        for mean, mx in zip(sweep.mean_rel_err, sweep.max_rel_err):
            assert mean <= mx + 1e-18

    def test_csv_layout(self):
        net = seeded_net((1, 6, 1), seed=0)
        x = np.linspace(-1, 1, 4).reshape(-1, 1)
        sweep = fvp_error_sweep(net, x, GaussianLikelihood(1.0), (1e-2, 1e-3, 1e-4),
                                num_probes=3, seed=5)
        text = sweep_csv(sweep)
        lines = text.strip().split("\n")
        assert lines[0] == "epsilon,mean_rel_err,max_rel_err,probes,seed"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[3] == "3" and cells[4] == "5"

    def test_error_curve_is_u_shaped_gaussian(self):
        # The output offset puts the forward pass in the un-normalized
        # regime where the cancellation branch at eps = 1e-8 is visible
        # at double precision; with outputs near zero the curve bottoms
        # out below 1e-8 instead.
        net = seeded_net((1, 32, 1), seed=0, bias_offset=1e5)
        rng = np.random.default_rng(99)
        x = rng.uniform(-2, 2, size=(16, 1))
        sweep = fvp_error_sweep(net, x, GaussianLikelihood(1.0), (1e-2, 1e-4, 1e-8),
                                num_probes=8, seed=0)
        hi, mid, lo = sweep.mean_rel_err
        assert mid <= 1e-2
        assert mid < hi
        assert mid < lo

    def test_error_curve_is_u_shaped_categorical(self):
        net = seeded_net((2, 24, 2), seed=1, bias_offset=1e5)
        rng = np.random.default_rng(99)
        x = rng.uniform(-2, 2, size=(16, 2))
        sweep = fvp_error_sweep(net, x, CategoricalLikelihood(2), (1e-2, 1e-4, 1e-8),
                                num_probes=8, seed=0)
        hi, mid, lo = sweep.mean_rel_err
        assert mid <= 1e-2
        assert mid < hi
        assert mid < lo

    def test_empty_grid_rejected(self):
        net = seeded_net((1, 4, 1), seed=0)
        with pytest.raises(ContractViolationError, match="grid"):
            fvp_error_sweep(net, np.zeros((2, 1)), GaussianLikelihood(1.0), (), 4, 0)

    def test_zero_probes_rejected(self):
        net = seeded_net((1, 4, 1), seed=0)
        with pytest.raises(ContractViolationError, match="probe"):
            fvp_error_sweep(net, np.zeros((2, 1)), GaussianLikelihood(1.0), (1e-4,), 0, 0)


class TestFisherOperator:
    """The scaled Fisher a*F that ``exact_fvp`` applies, as a p x p operator."""

    def test_gaussian_default_scale_equals_gram(self):
        # a = n * noise variance makes the Gaussian product J J' v.
        net = seeded_net((1, 6, 1), seed=4)
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=(5, 1))
        dense = JacobianOperator(net, x).dense()
        for _ in range(3):
            v = rng.standard_normal(net.architecture.parameter_count)
            applied = 5 * 0.3 * exact_fvp(net, x, v, GaussianLikelihood(0.3))
            np.testing.assert_allclose(applied, dense @ (dense.T @ v), rtol=1e-10)

    def test_symmetry(self):
        net = seeded_net((2, 8, 3), seed=2)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(6, 2))
        like = CategoricalLikelihood(3)
        for _ in range(10):
            u = rng.standard_normal(net.architecture.parameter_count)
            w = rng.standard_normal(net.architecture.parameter_count)
            lhs = u @ (6 * exact_fvp(net, x, w, like))
            rhs = w @ (6 * exact_fvp(net, x, u, like))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, size=(6, 1))
        for like, dims, scale in ((GaussianLikelihood(0.5), (1, 8, 1), 6 * 0.5),
                                  (CategoricalLikelihood(2), (1, 8, 2), 6)):
            net = seeded_net(dims, seed=3)
            for _ in range(25):
                v = rng.standard_normal(net.architecture.parameter_count)
                v /= np.linalg.norm(v)
                assert v @ (scale * exact_fvp(net, x, v, like)) >= -1e-10

    def test_parameter_and_function_space_spectra_agree(self):
        # The nonzero eigenvalues of (1/n) J J' and (1/n) J' J coincide.
        net = seeded_net((1, 3, 1), seed=6)
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, size=(4, 1))
        dense = JacobianOperator(net, x).dense()
        n = 4
        eig_param = np.linalg.eigvalsh(dense @ dense.T / n)[::-1]
        eig_func = np.linalg.eigvalsh(dense.T @ dense / n)[::-1]
        np.testing.assert_allclose(eig_param[:n], eig_func, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(eig_param[n:], 0.0, atol=1e-10)

    def test_fd_backend_reproduces_parameter_space_fit(self):
        # Solving (a F + sigma^2 I) m = J ytilde with the FD operator
        # must land on the same posterior mean as the jvp/vjp route.
        rng = np.random.default_rng(5)
        x = rng.uniform(-4.0, 4.0, size=(8, 1))
        y = 2.0 * np.sin(1.3 * x + 0.4)
        sigma2 = 0.25
        net = seeded_net((1, 12, 1), seed=4)
        posterior = fit_parameter_space(net, TaskDataset(x, y, noise_variance=sigma2))
        # a F with a = n * sigma^2, by finite differences.
        like, cfg = GaussianLikelihood(sigma2), FvpConfig(1e-6)
        shifted = SymmetricLinearOperator(
            dim=net.architecture.parameter_count,
            base=lambda v: 8 * sigma2 * fd_fvp(net, x, v, like, cfg),
            shift=sigma2,
        )
        rhs = JacobianOperator(net, x).vjp(y.ravel())
        solved = cg_solve(shifted, rhs, tol=1e-5)
        assert solved.converged
        gap = np.linalg.norm(solved.x - posterior.mean_cache)
        assert gap <= 1e-3 * np.linalg.norm(posterior.mean_cache)
        grid = np.linspace(-4, 4, 31).reshape(-1, 1)
        jac_grid = JacobianOperator(net, grid)
        pred_fd = jac_grid.jvp(solved.x)
        pred_gp = jac_grid.jvp(posterior.mean_cache)
        assert np.linalg.norm(pred_fd - pred_gp) <= 1e-3 * np.linalg.norm(pred_gp)
