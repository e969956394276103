import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import tangentgp.glm as glm_module
import tangentgp.gp as gp_module
import tangentgp.net as net_module
from tangentgp.errors import (
    ContractViolationError,
    FitError,
    NumericBreakdownError,
    ResourceLimitError,
    TrainingDivergenceError,
)
from tangentgp.fisher import _log_softmax
from tangentgp.glm import (
    SVI_RAW_SCALE_INIT,
    ClassificationData,
    GlmFitConfig,
    LaplacePosterior,
    LinearizedGlm,
    MapPosterior,
    MeanFieldPosterior,
    _laplace_draw,
    fit_laplace,
    fit_map,
    fit_svi,
    glm_logits,
    kl_meanfield_to_prior,
    laplace_precision,
    predict_class,
    prediction_csv,
    sample_gaussian_from_precision,
    zero_coefficients_glm,
)
from tangentgp.gp import CHOLESKY_BLOCK
from tangentgp.linalg import SymmetricLinearOperator, lanczos_factorize, lowrank_inverse_root
from tangentgp.net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    JacobianOperator,
    MlpArchitecture,
    forward,
    init_network,
)
from tangentgp.seeding import substream
from tangentgp.serialize import float_lines, fmt_float, render_csv


def make_blobs(seed=42, n_half=100, spread=0.5):
    """Two well-separated Gaussian clusters with a held-out set of the same size."""
    rng = substream(seed, "blobs")
    lo = rng.normal((-1.5, -1.5), spread, size=(2 * n_half, 2))
    hi = rng.normal((1.5, 1.5), spread, size=(2 * n_half, 2))
    x = np.vstack([lo[:n_half], hi[:n_half]])
    labels = np.array([0] * n_half + [1] * n_half)
    x_test = np.vstack([lo[n_half:], hi[n_half:]])
    labels_test = labels.copy()
    return ClassificationData(x, labels), x_test, labels_test


def logistic_oracle(x, labels, x_test):
    """Plain Newton-iterated logistic regression on raw inputs plus a bias."""
    phi = np.hstack([x, np.ones((len(x), 1))])
    w = np.zeros(phi.shape[1])
    for _ in range(30):
        p = 1.0 / (1.0 + np.exp(-phi @ w))
        weights = np.clip(p * (1 - p), 1e-9, None)
        hess = phi.T @ (phi * weights[:, None]) + 1e-6 * np.eye(phi.shape[1])
        w = w + np.linalg.solve(hess, phi.T @ (labels - p))
    phi_test = np.hstack([x_test, np.ones((len(x_test), 1))])
    return (phi_test @ w > 0).astype(np.int64)


def blob_model(seed=7, **kwargs):
    net = init_network(MlpArchitecture(2, (16,), 2), seed=seed)
    return zero_coefficients_glm(net, **kwargs)


def reference_glm_fit(model, data, cfg, method):
    """``fit_map`` or ``fit_svi`` written out in plain numpy, independent of ``net`` and ``glm``.

    Unpacks the flat vectors per layer, runs the forward, forward-mode
    (logits J' theta') and reverse (J u) passes of a tanh network by hand,
    and steps with the textbook Adam formula. The batch order and the
    SVI noise come from the same seeded streams as the library loops.
    Returns (coefficients, loss trace) for "map" and (mu, raw scales,
    ELBO trace) for "svi".
    """
    arch = model.network.architecture
    assert arch.activation == "tanh"
    dims = arch.layer_dims

    def unpack(theta):
        layers, offset = [], 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = theta[offset : offset + fan_in * fan_out].reshape(fan_out, fan_in)
            offset += fan_in * fan_out
            layers.append((w, theta[offset : offset + fan_out]))
            offset += fan_out
        return layers

    layers = unpack(model.network.params)
    prior = model.prior_variance
    n = data.n

    def nll_and_grad(x, labels, coeff):
        inputs, slopes, h = [], [], x
        for w, b in layers[:-1]:
            inputs.append(h)
            h = np.tanh(h @ w.T + b)
            slopes.append(1.0 - h * h)
        inputs.append(h)
        out = h @ layers[-1][0].T + layers[-1][1]
        # Forward mode: the directional derivative of the outputs along coeff.
        dh = None
        for idx, (dw, db) in enumerate(unpack(coeff)):
            dz = inputs[idx] @ dw.T + db
            if dh is not None:
                dz = dz + dh @ layers[idx][0].T
            if idx < len(layers) - 1:
                dh = slopes[idx] * dz
        logits = dz + out if model.include_network_output else dz
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_q = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        rows = np.arange(len(labels))
        delta = np.exp(log_q)
        delta[rows, labels] -= 1.0
        # Reverse mode: the coefficient gradient of the summed NLL.
        pieces = []
        for idx in range(len(layers) - 1, -1, -1):
            pieces = [(delta.T @ inputs[idx]).ravel(), delta.sum(axis=0)] + pieces
            if idx > 0:
                delta = (delta @ layers[idx][0]) * slopes[idx - 1]
        return -log_q[rows, labels].sum(), np.concatenate(pieces)

    def textbook_adam(size):
        m, u, step = np.zeros(size), np.zeros(size), 0

        def adam(theta, grad):
            nonlocal m, u, step
            step += 1
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
            u = ADAM_BETA2 * u + (1 - ADAM_BETA2) * grad * grad
            m_hat = m / (1 - ADAM_BETA1**step)
            u_hat = u / (1 - ADAM_BETA2**step)
            return theta - cfg.learning_rate * m_hat / (np.sqrt(u_hat) + ADAM_EPS)

        return adam

    p = model.coefficients.size
    trace = []
    if method == "map":
        rng = substream(cfg.seed, "glm-map")
        coeff = model.coefficients.copy()
        adam = textbook_adam(p)
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                _, g = nll_and_grad(data.x[batch], data.labels[batch], coeff)
                coeff = adam(coeff, (n / len(batch)) * g + coeff / prior)
            nll, _ = nll_and_grad(data.x, data.labels, coeff)
            trace.append(nll + (coeff @ coeff) / (2.0 * prior))
        return coeff, np.array(trace)
    rng = substream(cfg.seed, "glm-svi")
    mu, raw = np.zeros(p), np.full(p, SVI_RAW_SCALE_INIT)
    adam = textbook_adam(2 * p)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scales = np.logaddexp(0.0, raw)
            z = rng.standard_normal(p)
            nll, g = nll_and_grad(data.x[batch], data.labels[batch], mu + scales * z)
            scale = n / len(batch)
            g = scale * g
            var_ratio = scales * scales / prior
            kl = np.sum(0.5 * (var_ratio + mu * mu / prior - 1.0) - 0.5 * np.log(var_ratio))
            trace.append(-(scale * nll + kl))
            grad_mu = g + mu / prior
            sigmoid = 0.5 * (1.0 + np.tanh(0.5 * raw))
            grad_raw = (g * z + scales / prior - 1.0 / scales) * sigmoid
            packed = adam(np.concatenate([mu, raw]), np.concatenate([grad_mu, grad_raw]))
            mu, raw = packed[:p], packed[p:]
    return mu, raw, np.array(trace)


def reference_setup(include_network_output):
    """Three classes on a (2, (7, 5), 3) tanh net; 23 points, so the last batch is short."""
    rng = np.random.default_rng(40)
    x = rng.standard_normal((23, 2))
    labels = rng.integers(0, 3, size=23)
    net = init_network(MlpArchitecture(2, (7, 5), 3), seed=41)
    model = zero_coefficients_glm(
        net, include_network_output=include_network_output, prior_variance=0.7
    )
    cfg = GlmFitConfig(learning_rate=0.05, epochs=9, batch_size=5, seed=42)
    return model, ClassificationData(x, labels), cfg


class TestReferenceLoops:
    """The GLM fits are bitwise the plain-numpy loops of ``reference_glm_fit``."""

    @pytest.mark.parametrize("include_network_output", [False, True])
    def test_fit_map_bitwise_equal_to_reference_loop(self, include_network_output):
        model, data, cfg = reference_setup(include_network_output)
        result = fit_map(model, data, cfg)
        coeff, trace = reference_glm_fit(model, data, cfg, "map")
        assert np.array_equal(result.model.coefficients, coeff)
        assert np.array_equal(result.loss_trace, trace)

    @pytest.mark.parametrize("include_network_output", [False, True])
    def test_fit_svi_bitwise_equal_to_reference_loop(self, include_network_output):
        model, data, cfg = reference_setup(include_network_output)
        result = fit_svi(model, data, cfg)
        mu, raw, trace = reference_glm_fit(model, data, cfg, "svi")
        assert np.array_equal(result.posterior.mu, mu)
        assert np.array_equal(result.posterior.raw_scales, raw)
        assert np.array_equal(result.elbo_trace, trace)


class TestLinearizedGlm:
    def test_coefficient_shape_enforced(self):
        net = init_network(MlpArchitecture(1, (4,), 2), seed=0)
        with pytest.raises(ContractViolationError, match="parameter count"):
            LinearizedGlm(network=net, coefficients=np.zeros(3))

    def test_non_finite_coefficients_rejected(self):
        net = init_network(MlpArchitecture(1, (4,), 2), seed=0)
        bad = np.zeros(net.architecture.parameter_count)
        bad[0] = np.inf
        with pytest.raises(ContractViolationError, match="non-finite"):
            LinearizedGlm(network=net, coefficients=bad)

    def test_prior_variance_must_be_positive(self):
        net = init_network(MlpArchitecture(1, (4,), 2), seed=0)
        with pytest.raises(ContractViolationError, match="prior variance"):
            zero_coefficients_glm(net, prior_variance=0.0)

    @pytest.mark.parametrize("prior_variance", [math.inf, math.nan])
    def test_prior_variance_must_be_finite(self, prior_variance):
        # An infinite prior variance would make lam = 1 / prior zero: a
        # singular Newton step and a draw of non-finite coefficients.
        net = init_network(MlpArchitecture(1, (4,), 2), seed=0)
        with pytest.raises(ContractViolationError, match=f"^prior variance must be positive and finite, got {prior_variance}$"):
            zero_coefficients_glm(net, prior_variance=prior_variance)

    def test_single_output_rejected(self):
        net = init_network(MlpArchitecture(1, (4,), 1), seed=0)
        with pytest.raises(ContractViolationError, match="classes"):
            zero_coefficients_glm(net)

    def test_heteroscedastic_rejected(self):
        net = init_network(MlpArchitecture(1, (4,), 2, heteroscedastic=True), seed=0)
        with pytest.raises(ContractViolationError, match="heteroscedastic"):
            zero_coefficients_glm(net)

    def test_labels_validated(self):
        with pytest.raises(ContractViolationError, match="integers"):
            ClassificationData(np.zeros((2, 1)), np.array([0.0, 1.0]))
        with pytest.raises(ContractViolationError, match="nonnegative"):
            ClassificationData(np.zeros((2, 1)), np.array([0, -1]))
        model = blob_model()
        data = ClassificationData(np.zeros((2, 2)), np.array([0, 5]))
        with pytest.raises(ContractViolationError, match="out of range"):
            fit_map(model, data, GlmFitConfig(epochs=1))


class TestGlmLogits:
    def test_zero_coefficients_give_uniform(self):
        model = blob_model()
        x = np.array([[0.3, -0.4], [1.0, 2.0]])
        logits = glm_logits(model, x)
        assert np.all(logits == 0.0)
        probs, labels = predict_class(model, MapPosterior(model.coefficients), x)
        np.testing.assert_allclose(probs, 0.5)
        assert np.all(labels == 0)

    def test_taylor_base_point_recovers_network_output(self):
        model = blob_model(include_network_output=True)
        x = np.array([[0.5, 0.1], [-1.2, 0.7], [2.0, -0.3]])
        np.testing.assert_array_equal(glm_logits(model, x), forward(model.network, x))

    def test_matches_dense_jacobian_algebra(self):
        net = init_network(MlpArchitecture(2, (5,), 3), seed=9)
        rng = np.random.default_rng(0)
        coeff = rng.standard_normal(net.architecture.parameter_count)
        model = LinearizedGlm(network=net, coefficients=coeff)
        x = rng.uniform(-1, 1, size=(4, 2))
        dense = JacobianOperator(net, x).dense()
        np.testing.assert_allclose(
            glm_logits(model, x), (dense.T @ coeff).reshape(4, 3), rtol=1e-10, atol=1e-12
        )

    def test_affine_net_at_own_parameters(self):
        # An affine network is linear in theta, so J' theta reproduces
        # the forward pass itself.
        net = init_network(MlpArchitecture(2, (), 2), seed=1)
        model = LinearizedGlm(network=net, coefficients=net.params)
        x = np.array([[0.4, -0.9], [1.5, 0.2]])
        np.testing.assert_allclose(glm_logits(model, x), forward(net, x), rtol=1e-12)


class TestFitMap:
    def test_separable_blobs_match_logistic_oracle(self):
        data, x_test, labels_test = make_blobs()
        model = blob_model()
        result = fit_map(model, data, GlmFitConfig(learning_rate=0.05, epochs=40, seed=1))
        _, pred = predict_class(result.model, result.posterior, x_test)
        acc = float((pred == labels_test).mean())
        oracle_acc = float((logistic_oracle(data.x, data.labels, x_test) == labels_test).mean())
        assert oracle_acc >= 0.98
        assert acc >= 0.98
        assert abs(acc - oracle_acc) <= 0.03

    def test_loss_trace_decreases_smoothed(self):
        data, _, _ = make_blobs()
        model = blob_model()
        result = fit_map(model, data, GlmFitConfig(learning_rate=0.05, epochs=40, seed=1))
        chunks = result.loss_trace.reshape(8, 5).mean(axis=1)
        assert np.all(np.diff(chunks) <= 1e-8)

    def test_linearization_point_never_moves(self):
        data, _, _ = make_blobs()
        model = blob_model()
        before = model.network.fingerprint()
        result = fit_map(model, data, GlmFitConfig(learning_rate=0.05, epochs=5, seed=0))
        assert result.model.network.fingerprint() == before

    def test_vanishing_prior_shrinks_to_uniform(self):
        data, x_test, _ = make_blobs()
        model = blob_model(prior_variance=1e-12)
        result = fit_map(
            model, data, GlmFitConfig(learning_rate=2e-4, epochs=150, batch_size=200, seed=0)
        )
        assert np.linalg.norm(result.model.coefficients) <= 1e-6
        probs, _ = predict_class(result.model, result.posterior, x_test)
        assert np.abs(probs - 0.5).max() <= 1e-6

    def test_prior_limit_is_monotone(self):
        data, _, _ = make_blobs()
        net = init_network(MlpArchitecture(2, (4,), 2), seed=3)
        norms = []
        for prior in (1.0, 1e-1, 1e-2, 1e-3):
            model = zero_coefficients_glm(net, prior_variance=prior)
            result = fit_map(
                model, data, GlmFitConfig(learning_rate=0.05, epochs=120, batch_size=200, seed=0)
            )
            norms.append(float(np.linalg.norm(result.model.coefficients)))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_zero_epochs_is_identity(self):
        data, _, _ = make_blobs()
        model = blob_model()
        result = fit_map(model, data, GlmFitConfig(epochs=0))
        np.testing.assert_array_equal(result.model.coefficients, model.coefficients)
        assert result.loss_trace.size == 0

    def test_mid_epoch_overflow_reports_divergence(self):
        # Four steps per epoch: the first update overflows, and the next
        # step must report divergence rather than reject its own input.
        data, _, _ = make_blobs(n_half=8)
        cfg = GlmFitConfig(learning_rate=1e300, epochs=2, batch_size=4, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergenceError) as info:
                fit_map(blob_model(), data, cfg)
        assert info.value.epoch == 0

    @pytest.mark.parametrize("start, what", [(0.0, "MAP coefficients"), (1e155, "MAP objective")])
    def test_divergence_names_the_quantity_and_the_epoch(self, start, what):
        # From zero, a learning rate of 1e300 overflows the coefficients;
        # from 1e155 a tiny one keeps them finite, but coeff @ coeff
        # overflows the epoch-end objective.
        data, _, _ = make_blobs(n_half=8)
        model = blob_model()
        model = model.with_coefficients(np.full(model.coefficients.size, start))
        cfg = GlmFitConfig(learning_rate=1e300 if start == 0 else 1e-3, epochs=2, batch_size=4)
        with pytest.raises(TrainingDivergenceError, match=f"^non-finite {what} at epoch 0$") as info:
            fit_map(model, data, cfg)
        assert info.value.epoch == 0

    def test_overflowing_logits_are_divergence_not_bad_input(self):
        # Finite coefficients whose linearized logits overflow: the first
        # step's logit gradient is non-finite, which is a numeric failure.
        net = init_network(MlpArchitecture(3, (32, 32), 4), seed=0)
        model = zero_coefficients_glm(net)
        model = model.with_coefficients(np.full(model.coefficients.size, 1e307))
        x = 10.0 * np.random.default_rng(0).normal(size=(16, 3))
        data = ClassificationData(x, np.arange(16) % 4)
        with pytest.raises(TrainingDivergenceError, match="^non-finite logit gradient at epoch 0$") as info:
            fit_map(model, data, GlmFitConfig(epochs=1, batch_size=8))
        assert info.value.epoch == 0

    @pytest.mark.parametrize("learning_rate", [0.0, -1e-3, math.inf, -math.inf, math.nan])
    def test_config_rejects_a_learning_rate_that_is_not_positive_and_finite(self, learning_rate):
        with pytest.raises(ContractViolationError, match="learning rate must be positive and finite"):
            GlmFitConfig(learning_rate=learning_rate)

    def test_full_taylor_view_also_separates(self):
        data, x_test, labels_test = make_blobs()
        model = blob_model(include_network_output=True)
        result = fit_map(model, data, GlmFitConfig(learning_rate=0.05, epochs=40, seed=1))
        _, pred = predict_class(result.model, result.posterior, x_test)
        assert float((pred == labels_test).mean()) >= 0.95


class TestFitSvi:
    def test_kl_zero_at_prior(self):
        assert kl_meanfield_to_prior(np.zeros(5), np.ones(5), 1.0) == 0.0

    def test_kl_unit_mean_shift(self):
        mu = np.zeros(4)
        mu[0] = 1.0
        assert kl_meanfield_to_prior(mu, np.ones(4), 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_kl_rejects_bad_scales(self):
        with pytest.raises(ContractViolationError, match="positive"):
            kl_meanfield_to_prior(np.zeros(2), np.array([1.0, 0.0]), 1.0)

    def test_overflowing_logits_are_divergence_not_bad_input(self):
        # A huge first step leaves finite parameters whose linearized logits
        # overflow: the next step's logit gradient is non-finite, a numeric failure.
        net = init_network(MlpArchitecture(3, (32, 32), 4), seed=0)
        data = ClassificationData(np.random.default_rng(0).normal(size=(16, 3)), np.arange(16) % 4)
        cfg = GlmFitConfig(learning_rate=1e307, epochs=1, batch_size=8)
        with pytest.raises(TrainingDivergenceError, match="^non-finite logit gradient at epoch 0$"):
            fit_svi(zero_coefficients_glm(net), data, cfg)

    def test_elbo_improves(self):
        data, _, _ = make_blobs()
        model = blob_model()
        result = fit_svi(model, data, GlmFitConfig(learning_rate=0.05, epochs=40, seed=2))
        tail = result.elbo_trace[-max(1, len(result.elbo_trace) // 5):]
        assert tail.mean() > result.elbo_trace[0]

    def test_mean_parameter_classifies(self):
        data, x_test, labels_test = make_blobs()
        model = blob_model()
        result = fit_svi(model, data, GlmFitConfig(learning_rate=0.05, epochs=40, seed=2))
        _, pred = predict_class(model, result.posterior, x_test, mode="mean")
        assert float((pred == labels_test).mean()) >= 0.95

    def test_scales_strictly_positive(self):
        data, _, _ = make_blobs()
        model = blob_model()
        result = fit_svi(model, data, GlmFitConfig(learning_rate=0.05, epochs=2, seed=0))
        assert np.all(result.posterior.scales > 0)

    @pytest.mark.parametrize("learning_rate", [1.7e308, 1e20])
    def test_mid_epoch_divergence_reported(self, learning_rate):
        # 1.7e308 overflows the variational parameters; 1e20 drives the raw
        # scales so low that softplus underflows to a zero scale.
        data, _, _ = make_blobs(n_half=8)
        cfg = GlmFitConfig(learning_rate=learning_rate, epochs=2, batch_size=4, seed=0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(TrainingDivergenceError) as info:
                fit_svi(blob_model(), data, cfg)
        assert info.value.epoch == 0

    @pytest.mark.parametrize(
        "learning_rate, message",
        [
            (1.7e308, "non-finite variational parameters"),
            (1e200, "non-finite ELBO"),
            (1e20, "variational scales collapsed to zero"),
        ],
    )
    def test_divergence_names_the_quantity_and_the_epoch(self, learning_rate, message):
        data, _, _ = make_blobs(n_half=8)
        cfg = GlmFitConfig(learning_rate=learning_rate, epochs=2, batch_size=4, seed=0)
        with pytest.raises(TrainingDivergenceError, match=f"^{message} at epoch 0$") as info:
            fit_svi(blob_model(), data, cfg)
        assert info.value.epoch == 0

    def test_deterministic_for_fixed_seed(self):
        data, _, _ = make_blobs()
        model = blob_model()
        cfg = GlmFitConfig(learning_rate=0.05, epochs=3, seed=5)
        a = fit_svi(model, data, cfg)
        b = fit_svi(model, data, cfg)
        np.testing.assert_array_equal(a.posterior.mu, b.posterior.mu)
        np.testing.assert_array_equal(a.posterior.raw_scales, b.posterior.raw_scales)
        c = fit_svi(model, data, GlmFitConfig(learning_rate=0.05, epochs=3, seed=6))
        assert not np.array_equal(a.posterior.mu, c.posterior.mu)


def affine_laplace_setup():
    """Small enough for dense Fisher algebra: affine 1 -> 2 net, p = 4."""
    rng = np.random.default_rng(12)
    x = rng.uniform(-2, 2, size=(20, 1))
    labels = (x[:, 0] > 0).astype(np.int64)
    net = init_network(MlpArchitecture(1, (), 2), seed=3)
    model = zero_coefficients_glm(net, prior_variance=0.5)
    data = ClassificationData(x, labels)
    posterior = fit_laplace(model, data)
    jac = JacobianOperator(net, x)
    dense = jac.dense()
    logits = jac.jvp(posterior.mean).reshape(20, 2)
    probs = np.exp(_log_softmax(logits))
    precision = np.eye(4) / 0.5
    for i in range(20):
        block = dense[:, 2 * i : 2 * i + 2]
        h = np.diag(probs[i]) - np.outer(probs[i], probs[i])
        precision += block @ h @ block.T
    return model, data, posterior, precision


class TestFitLaplace:
    @pytest.mark.parametrize("field", ["mean", "fisher_x"])
    def test_non_finite_mean_or_fisher_inputs_refused(self, field):
        # The logits pass does not check; the mean is refused by LinearizedGlm
        # where it is used, the Fisher inputs by JacobianOperator.
        model, data, posterior, _ = affine_laplace_setup()
        bad = getattr(posterior, field).copy()
        bad.flat[1] = np.nan
        posterior = replace(posterior, **{field: bad})
        modes = ("mean", "single_sample") if field == "mean" else ("single_sample",)
        match = "coefficients contain" if field == "mean" else "Jacobian inputs contain"
        for mode in modes:
            with pytest.raises(ContractViolationError, match=f"^{match} non-finite entries$"):
                predict_class(model, posterior, data.x, mode=mode, seed=1)

    def test_precision_matches_dense_fisher(self):
        model, _, posterior, dense_precision = affine_laplace_setup()
        op = laplace_precision(model, posterior)
        np.testing.assert_allclose(op.to_dense(), dense_precision, rtol=1e-10, atol=1e-12)

    # (classes, training inputs, source, full Taylor view) on a (2, (4,), c)
    # tanh net, p = 12 + 5c. n*(c-1) <= p (the kernel-side Newton step) in
    # the first, third and fifth cases, n*(c-1) > p (the p side) in the others.
    NEWTON_CASES = [
        (2, 10, "train", False),
        (2, 30, "train", True),
        (4, 6, "train", True),
        (4, 12, "train", False),
        (3, 8, "test_batch", True),
        (3, 14, "test_batch", False),
    ]

    @pytest.mark.parametrize("classes, n, source, include_output", NEWTON_CASES)
    def test_mean_is_the_dense_newton_mode(self, classes, n, source, include_output):
        model, data = newton_setup(classes, n, include_output)
        posterior = fit_laplace(model, data, fisher_source=source)
        oracle = dense_newton_mode(model, data)
        assert np.linalg.norm(posterior.mean - oracle) <= 1e-10 * np.linalg.norm(oracle)
        _, gradient = dense_nll_gradient(model, data)
        start = np.linalg.norm(gradient(np.zeros_like(oracle))[0])
        assert np.linalg.norm(gradient(posterior.mean)[0]) <= 1e-10 * (1.0 + start)
        # A test-batch Fisher still optimizes on the training inputs, and keeps no Gram factor.
        assert posterior.n_train == n and posterior.prior_variance == model.prior_variance
        if source == "test_batch":
            assert posterior.fisher_x is None and posterior.gram_factor is None
        else:
            assert np.array_equal(posterior.fisher_x, data.x)
            # The kept factor is np.linalg.cholesky of the Gram a draw builds at the mean, and the
            # kept map that of the Fisher root it builds there, bit for bit.
            square = np.linalg.cholesky(laplace_gram(model, posterior))
            assert all(map(np.array_equal, posterior.gram_factor, factor_panels(square)))
            assert len(posterior.gram_factor) == len(factor_panels(square))
            rebuilt = glm_module._fisher_root(*glm_module._fisher_at_map(model, posterior, None))
            assert np.array_equal(posterior.fisher_map, rebuilt.output_map)

    def test_newton_stops_at_its_iteration_cap(self, monkeypatch):
        model, data = newton_setup(2, 10, False)
        monkeypatch.setattr(glm_module, "NEWTON_MAX_ITERATIONS", 1)
        with pytest.raises(FitError, match="^Newton's method did not reach the Laplace mode in 1 iterations"):
            fit_laplace(model, data)

    def test_weak_prior_stops_at_the_roundoff_floor(self):
        # At prior variance 1e8 the decrement's roundoff floor (about 6e-25)
        # sits above 1e-26 |f|: the fit stops once it no longer falls,
        # where a fixed tolerance alone would run into the iteration cap.
        data, _, _ = make_blobs()
        model = blob_model(prior_variance=1e8)
        posterior = fit_laplace(model, data)
        _, gradient = dense_nll_gradient(model, data)
        start = np.linalg.norm(gradient(np.zeros_like(posterior.mean))[0])
        assert np.linalg.norm(gradient(posterior.mean)[0]) <= 1e-10 * (1.0 + start)

    def test_newton_backtracks_from_a_far_start(self, monkeypatch):
        # Newton starts from the model's coefficients. From a far start the
        # whole step fails the Armijo test, and the fit backtracks to the
        # same mode; a start at the mode stops there at once.
        model, data = newton_setup(3, 8, True)
        mode = fit_laplace(model, data).mean
        far = model.with_coefficients(10.0 * np.random.default_rng(5).normal(size=mode.size))
        again = fit_laplace(far, data).mean
        assert np.linalg.norm(again - mode) <= 1e-10 * np.linalg.norm(mode)
        assert np.array_equal(fit_laplace(model.with_coefficients(mode), data).mean, mode)
        monkeypatch.setattr(glm_module, "MAX_BACKTRACKS", 0)
        with pytest.raises(FitError, match="^Newton line search found no sufficient decrease in 0 halvings"):
            fit_laplace(far, data)

    def test_newton_report_is_one_debug_record(self, monkeypatch, caplog):
        # From a far start the line search halves some steps. Every
        # iteration takes one LU solve, one logits pass (a forward-mode pass)
        # and one objective (a log-softmax); a resolved one adds one slope
        # (a forward-mode pass) and one trial objective per halving and one
        # more, so the halvings are the log-softmaxes less the forward-mode passes.
        model, data = newton_setup(3, 8, True)
        far = model.with_coefficients(10.0 * np.random.default_rng(5).normal(size=model.coefficients.size))
        with caplog.at_level(logging.WARNING, logger="tangentgp"):
            quiet = fit_laplace(far, data)
        assert caplog.records == []
        calls = {"gram_solve": 0, "_forward_mode": 0, "_log_softmax": 0}
        for name in calls:
            original = getattr(glm_module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(glm_module, name, counted)
        with caplog.at_level(logging.DEBUG, logger="tangentgp"):
            loud = fit_laplace(far, data)
        [record] = caplog.records
        assert record.name == "tangentgp.glm" and record.levelno == logging.DEBUG
        report = re.fullmatch(
            r"Laplace fit: Newton's method took (\d+) iterations and (\d+) backtracks "
            r"to a decrement of (\S+); kernel-side Gram 16 x 16",  # n*(c-1) = 16 <= p = 27
            record.getMessage(),
        )
        assert int(report[1]) == calls["gram_solve"]
        assert int(report[2]) == calls["_log_softmax"] - calls["_forward_mode"] > 0
        assert float(report[3]) <= glm_module.NEWTON_RESOLVED
        # The report changes nothing the fit returns.
        assert np.array_equal(loud.mean, quiet.mean) and np.array_equal(loud.fisher_map, quiet.fisher_map)
        assert all(map(np.array_equal, loud.gram_factor, quiet.gram_factor))

    def test_unknown_fisher_source_rejected(self):
        data, _, _ = make_blobs()
        with pytest.raises(ContractViolationError, match="fisher_source"):
            fit_laplace(blob_model(), data, fisher_source="aggregate")

    def test_test_batch_mode_defers_to_prediction_inputs(self):
        model, data, _, _ = affine_laplace_setup()
        deferred = fit_laplace(model, data, fisher_source="test_batch")
        assert deferred.fisher_x is None
        with pytest.raises(ContractViolationError, match="pass x"):
            laplace_precision(model, deferred)
        x_batch = np.array([[0.1], [0.9], [-1.4]])
        op_batch = laplace_precision(model, deferred, x_batch)
        pinned = fit_laplace(model, data, fisher_source="train")
        op_train = laplace_precision(model, pinned)
        # Not the all-ones vector: that sits in the shared shift-invariance
        # null space of every softmax Fisher and both operators agree on it.
        v = np.array([1.0, 0.0, 0.5, -0.2])
        assert not np.allclose(op_batch.apply(v), op_train.apply(v))

    def test_sampler_applies_exact_inverse_root(self):
        # At Krylov exhaustion the Lanczos draw equals P^{-1/2} z, so
        # each sample can be checked against dense algebra directly.
        model, _, posterior, dense_precision = affine_laplace_setup()
        op = laplace_precision(model, posterior)
        evals, evecs = np.linalg.eigh(dense_precision)
        inv_root = evecs @ np.diag(evals**-0.5) @ evecs.T
        draw_rng = substream(5, "laplace-samples")
        ref_rng = substream(5, "laplace-samples")
        for _ in range(20):
            sample = sample_gaussian_from_precision(op, np.zeros(4), draw_rng)
            z = ref_rng.standard_normal(4)
            np.testing.assert_allclose(sample, inv_root @ z, rtol=1e-9, atol=1e-12)

    def test_sampling_covariance_matches_dense_inverse(self):
        # sqrt(2/N) Monte-Carlo floor: 70k draws put the expected
        # Frobenius-relative deviation near 6e-3, inside the 1e-2 gate.
        model, _, posterior, dense_precision = affine_laplace_setup()
        op = laplace_precision(model, posterior)
        cov = np.linalg.inv(dense_precision)
        rng = substream(5, "laplace-samples")
        n_draws = 70_000
        acc = np.zeros((4, 4))
        for _ in range(n_draws):
            y = sample_gaussian_from_precision(op, np.zeros(4), rng)
            acc += np.outer(y, y)
        emp = acc / n_draws
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) <= 1e-2

    def test_prior_fallback_without_curvature(self):
        # Zero Fisher leaves the prior: per-coordinate sample variance
        # over 1000 draws within 10% of the prior variance.
        prior_variance = 0.7
        op = SymmetricLinearOperator(
            dim=6, base=lambda v: np.zeros_like(v), shift=1.0 / prior_variance
        )
        rng = substream(8, "prior-fallback")
        draws = np.array(
            [sample_gaussian_from_precision(op, np.zeros(6), rng) for _ in range(1000)]
        )
        per_coord = draws.var(axis=0)
        np.testing.assert_allclose(per_coord, prior_variance, rtol=0.1)

    def test_two_parameter_covariance_matches_dense(self):
        precision = np.array([[3.0, 1.2], [1.2, 2.0]])
        op = SymmetricLinearOperator.from_dense(precision)
        z = np.random.default_rng(9).standard_normal(2)
        factors = lanczos_factorize(op, z, 2)
        root = lowrank_inverse_root(factors)
        np.testing.assert_allclose(
            root @ root.T, np.linalg.inv(precision), rtol=1e-6, atol=1e-12
        )

    def test_indefinite_precision_raises(self):
        op = SymmetricLinearOperator.from_dense(np.diag([1.0, -1.0]))
        rng = np.random.default_rng(0)
        with pytest.raises(NumericBreakdownError):
            sample_gaussian_from_precision(op, np.zeros(2), rng)


def laplace_draw_setup(classes, n_fisher, fisher_source, include_network_output):
    """Laplace fit on a (4,) tanh net with p = 12 + 5 * classes coefficients."""
    rng = np.random.default_rng(10 * classes + n_fisher)
    net = init_network(MlpArchitecture(2, (4,), classes), seed=2)
    model = zero_coefficients_glm(
        net, include_network_output=include_network_output, prior_variance=0.7
    )
    x_train = rng.normal(size=(n_fisher if fisher_source == "train" else 9, 2))
    data = ClassificationData(x_train, np.arange(len(x_train)) % classes)
    # Each draw builds and factors its Gram unless a test hands it a factor.
    posterior = replace(fit_laplace(model, data, fisher_source=fisher_source), gram_factor=None)
    x = rng.normal(size=(n_fisher if fisher_source == "test_batch" else 3, 2))
    return model, posterior, x


def factor_panels(square):
    """A square lower factor as ``gp.gram_cholesky``'s panels: 48-row blocks up to the end of each diagonal block."""
    return tuple(square[i : i + CHOLESKY_BLOCK, : i + CHOLESKY_BLOCK] for i in range(0, len(square), CHOLESKY_BLOCK))


def laplace_gram(model, posterior):
    """The precision's Gram that a draw builds at the posterior's mean, on the pinned inputs."""
    jac, probs, upscale = glm_module._fisher_at_map(model, posterior, None)
    fisher = glm_module._fisher_root(jac, probs, upscale)
    return glm_module._shifted_gram(fisher, glm_module._tangent_kernel(jac), posterior.prior_variance)


def newton_setup(classes, n, include_network_output):
    """Random inputs and labels for a (2, (4,), classes) tanh net at prior variance 2."""
    rng = np.random.default_rng(100 * classes + n)
    net = init_network(MlpArchitecture(2, (4,), classes), seed=classes)
    model = zero_coefficients_glm(net, include_network_output=include_network_output, prior_variance=2.0)
    return model, ClassificationData(rng.normal(size=(n, 2)), rng.integers(0, classes, size=n))


def dense_nll_gradient(model, data):
    """The dense Jacobian and theta -> (gradient, class probabilities) of the penalized NLL."""
    c = model.num_classes
    jac = JacobianOperator(model.network, data.x)
    dense = jac.dense()
    offset = jac.outputs if model.include_network_output else 0.0
    onehot = np.eye(c)[data.labels]

    def gradient(theta):
        logits = (dense.T @ theta).reshape(data.n, c) + offset
        log_q = logits - logits.max(axis=1, keepdims=True)
        log_q -= np.log(np.exp(log_q).sum(axis=1, keepdims=True))
        probs = np.exp(log_q)
        return dense @ (probs - onehot).ravel() + theta / model.prior_variance, probs

    return dense, gradient


def dense_newton_mode(model, data):
    """The penalized NLL's minimizer by plain Newton on the dense Jacobian and Hessian.

    The Hessian is I / prior + sum_i J_i (diag(p_i) - p_i p_i') J_i'.
    Every step is taken whole, from zero.
    """
    c = model.num_classes
    dense, gradient = dense_nll_gradient(model, data)
    theta = np.zeros(dense.shape[0])
    for _ in range(50):
        grad, probs = gradient(theta)
        hess = np.eye(theta.size) / model.prior_variance
        for i, p_i in enumerate(probs):
            block = dense[:, c * i : c * (i + 1)]
            hess += block @ (np.diag(p_i) - np.outer(p_i, p_i)) @ block.T
        theta = theta - np.linalg.solve(hess, grad)
    return theta


def dense_laplace_precision(model, posterior, x):
    """prior^-1 I + (n_train / n) sum_i J_i (diag(p_i) - p_i p_i') J_i', densely."""
    fisher_x = posterior.fisher_x if posterior.fisher_x is not None else x
    c = model.num_classes
    dense = JacobianOperator(model.network, fisher_x).dense()
    logits = glm_logits(model.with_coefficients(posterior.mean), fisher_x)
    probs = np.exp(_log_softmax(logits))
    precision = np.eye(dense.shape[0]) / posterior.prior_variance
    upscale = posterior.n_train / len(fisher_x)
    for i, p_i in enumerate(probs):
        block = dense[:, c * i : c * (i + 1)]
        precision += upscale * block @ (np.diag(p_i) - np.outer(p_i, p_i)) @ block.T
    return precision


def dense_fisher_root(model, posterior, x):
    """B = sqrt(upscale) [J_i L_i Q_i]_i densely, with B B' the Laplace Fisher.

    L_i = diag(sqrt p_i) - p_i sqrt(p_i)' and Q_i the first c - 1 columns
    of the Householder reflector taking sqrt(p_i) to -e_c.
    """
    fisher_x = posterior.fisher_x if posterior.fisher_x is not None else x
    c = model.num_classes
    dense = JacobianOperator(model.network, fisher_x).dense()
    logits = glm_logits(model.with_coefficients(posterior.mean), fisher_x)
    probs = np.exp(_log_softmax(logits))
    scale = np.sqrt(posterior.n_train / len(fisher_x))
    blocks = []
    for i, p_i in enumerate(probs):
        root_p = np.sqrt(p_i)
        u = root_p + np.eye(c)[-1]
        reflector = np.eye(c) - 2.0 * np.outer(u, u) / (u @ u)
        left = np.diag(root_p) - np.outer(p_i, root_p)
        blocks.append(scale * dense[:, c * i : c * (i + 1)] @ left @ reflector[:, :-1])
    return np.hstack(blocks)


class TestLaplaceDraw:
    # (classes, Fisher inputs, source, full Taylor view); p = 22 for two
    # classes and 32 for four. The Fisher's rank bound n*(c-1) falls below
    # p in the first four cases (in the second, n*c does not) and above it
    # in the last three.
    CASES = [
        (2, 5, "train", False),
        (2, 20, "train", True),
        (4, 4, "test_batch", True),
        (4, 6, "train", False),
        (2, 25, "test_batch", False),
        (4, 12, "test_batch", False),
        (4, 12, "train", True),
    ]

    @staticmethod
    def noise(model, posterior, x, seed):
        """z (p) and then v (n_fisher * (c - 1)) from the stream predict_class draws from."""
        n_fisher = len(x if posterior.fisher_x is None else posterior.fisher_x)
        rng = substream(seed, "glm-predict")
        z = rng.standard_normal(model.coefficients.size)
        return z, rng.standard_normal(n_fisher * (model.num_classes - 1))

    class Fixed:
        """Generator stand-in handing the draw a chosen z, then a chosen v."""

        def __init__(self, z, v):
            self.parts = [z, v]

        def standard_normal(self, size):
            part = self.parts.pop(0)
            assert part.shape == (size,)
            return part

    @pytest.mark.parametrize("classes, n_fisher, source, include_output", CASES)
    def test_draw_equals_dense_inverse_root(self, classes, n_fisher, source, include_output):
        # The draw is mean + S [z; v] with S = A^-1 [sqrt(lam) I, B], an
        # inverse root of the precision: S S' = A^-1.
        model, posterior, x = laplace_draw_setup(classes, n_fisher, source, include_output)
        precision = dense_laplace_precision(model, posterior, x)
        np.testing.assert_allclose(
            laplace_precision(model, posterior, x).to_dense(), precision, rtol=1e-10, atol=1e-12
        )
        b = dense_fisher_root(model, posterior, x)
        lam = 1.0 / posterior.prior_variance
        np.testing.assert_allclose(lam * np.eye(len(b)) + b @ b.T, precision, rtol=1e-10, atol=1e-12)
        for seed in (0, 7):
            z, v = self.noise(model, posterior, x, seed)
            oracle = np.linalg.solve(precision, np.sqrt(lam) * z + b @ v)
            coeff = _laplace_draw(model, posterior, x, substream(seed, "glm-predict"))
            assert np.linalg.norm(coeff - posterior.mean - oracle) <= 1e-10 * np.linalg.norm(oracle)
            probs, labels = predict_class(model, posterior, x, mode="single_sample", seed=seed)
            expected = predict_class(model, MapPosterior(coeff), x, mode="mean")
            np.testing.assert_array_equal(probs, expected[0])
            np.testing.assert_array_equal(labels, expected[1])
        # Basis vectors (z, v) = e_i rebuild S column by column.
        draws = [
            _laplace_draw(model, posterior, x, self.Fixed(e[: z.size], e[z.size :]))
            for e in np.eye(z.size + v.size)
        ]
        root = np.column_stack(draws) - posterior.mean[:, None]
        covariance = np.linalg.inv(precision)
        assert np.linalg.norm(root @ root.T - covariance) <= 1e-10 * np.linalg.norm(covariance)

    @pytest.mark.parametrize("classes, n_fisher, source, include_output", CASES)
    def test_stiff_draw_is_backward_stable(self, classes, n_fisher, source, include_output):
        # A weak prior and a large upscale put cond(A) at 3e7 to 1e8.
        model, posterior, x = laplace_draw_setup(classes, n_fisher, source, include_output)
        posterior = replace(posterior, prior_variance=1e4, n_train=1000 * posterior.n_train)
        precision = dense_laplace_precision(model, posterior, x)
        b = dense_fisher_root(model, posterior, x)
        norm = np.linalg.norm(precision, 2)
        for seed in (0, 7):
            z, v = self.noise(model, posterior, x, seed)
            step = _laplace_draw(model, posterior, x, self.Fixed(z, v)) - posterior.mean
            resid = precision @ step - (np.sqrt(1.0 / posterior.prior_variance) * z + b @ v)
            assert np.linalg.norm(resid) <= 1e-12 * norm * np.linalg.norm(step)

    @pytest.mark.parametrize(
        "classes, n_fisher, include_output",
        [(2, 5, False), (2, 20, True), (4, 12, False), (4, 12, True)],
    )
    def test_draws_from_a_cached_gram_are_the_built_ones(self, monkeypatch, classes, n_fisher, include_output):
        # The kernel side (n*(c-1) = 5, 20 <= p = 22), then the p side (36 > p = 32).
        model, posterior, x = laplace_draw_setup(classes, n_fisher, "train", include_output)
        gram = laplace_gram(model, posterior)
        assert gram.shape == (min(n_fisher * (classes - 1), model.coefficients.size),) * 2
        factor = np.linalg.cholesky(gram)
        cached = replace(posterior, gram_factor=factor_panels(factor.copy()))
        built = {seed: predict_class(model, posterior, x, mode="single_sample", seed=seed) for seed in (0, 7)}
        draws = {seed: _laplace_draw(model, posterior, x, substream(seed, "glm-predict")) for seed in (0, 7)}

        def unbuilt(*args):
            raise AssertionError("a draw with a cached Gram factor built a Fisher root or a Gram, or factored one")

        for name in ("_tangent_kernel", "_shifted_gram", "gram_cholesky", "_fisher_root", "_fisher_at_map"):
            monkeypatch.setattr(glm_module, name, unbuilt)
        for seed in (0, 7):
            coeff = _laplace_draw(model, cached, x, substream(seed, "glm-predict"))
            assert np.array_equal(coeff, draws[seed])
            probs, labels = predict_class(model, cached, x, mode="single_sample", seed=seed)
            assert np.array_equal(probs, built[seed][0]) and np.array_equal(labels, built[seed][1])
        # The draws solve with the cached factor and leave it as it was.
        assert all(map(np.array_equal, cached.gram_factor, factor_panels(factor)))

    def test_a_test_batch_fisher_has_no_gram(self):
        model, posterior, _ = laplace_draw_setup(2, 5, "test_batch", False)
        with pytest.raises(ContractViolationError, match="pass x"):
            laplace_gram(model, posterior)
        with pytest.raises(ContractViolationError, match="no Gram to cache"):
            replace(posterior, gram_factor=np.eye(5))
        with pytest.raises(ContractViolationError, match="no Gram to cache"):
            replace(posterior, fisher_map=np.ones((9, 1, 2)))

    def test_malformed_posteriors_are_refused(self):
        # A draw needs one scale per coefficient and a Fisher upscaled by
        # at least one training point.
        _, posterior, _ = laplace_draw_setup(2, 5, "train", False)
        for n_train in (0, -5):
            with pytest.raises(ContractViolationError, match=f"n_train >= 1, got {n_train}"):
                replace(posterior, n_train=n_train)
        # A kept factor is solved with the Fisher root of the kept map.
        with pytest.raises(ContractViolationError, match="needs the Fisher map it was built from"):
            replace(posterior, gram_factor=(np.eye(5),), fisher_map=None)
        for mu, raw in [(4, 1), (4, 3), ((4, 1), (4, 1))]:
            with pytest.raises(ContractViolationError, match="raw_scales must be vectors of one length"):
                MeanFieldPosterior(mu=np.zeros(mu), raw_scales=np.zeros(raw))

    def test_no_draw_takes_an_eigendecomposition(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("the draw called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for case in (self.CASES[0], self.CASES[-1]):  # the kernel side, then the p side
            model, posterior, x = laplace_draw_setup(*case)
            probs, _ = predict_class(model, posterior, x, mode="single_sample", seed=3)
            assert np.all(np.isfinite(probs))

    def test_draw_breakdown_is_typed(self, monkeypatch):
        shifted_gram = glm_module._shifted_gram

        def nan_gram(*args):
            gram = shifted_gram(*args)
            gram[0, 0] = np.nan
            return gram

        def not_positive_definite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        for case in (self.CASES[0], self.CASES[-1]):  # the kernel side, then the p side
            model, posterior, x = laplace_draw_setup(*case)
            z, v = self.noise(model, posterior, x, 0)
            for target, name, fake, message in (
                (glm_module, "_shifted_gram", nan_gram, "non-finite"),
                (np.linalg, "cholesky", not_positive_definite, "Cholesky factorization of the .* Gram matrix failed"),
            ):
                with monkeypatch.context() as patch:
                    patch.setattr(target, name, fake)
                    with pytest.raises(NumericBreakdownError, match=message):
                        _laplace_draw(model, posterior, x, self.Fixed(z, v))

    def test_over_the_cap_raises_resource_limit(self, monkeypatch):
        # The p side: n*(c-1) = 36 > p = 32, and the 32 x 32 Fisher is over the cap.
        model, posterior, x = laplace_draw_setup(4, 12, "train", True)
        monkeypatch.setattr(gp_module, "DENSE_JACOBIAN_CAP", 32 * 32 - 1)
        with pytest.raises(ResourceLimitError, match="32 x 32"):
            _laplace_draw(model, posterior, x, np.random.default_rng(0))

    @pytest.mark.parametrize("classes", [2, 4])
    @pytest.mark.parametrize("include_output", [False, True])
    def test_mapped_kernel_is_the_mapped_operators_gram(self, classes, include_output):
        # The kernel side, n*(c-1) = 10 and 30 <= p = 22 and 32, at a random
        # mean with n_train != n, so that the Fisher root carries an upscale.
        model, data = newton_setup(classes, 10, include_output)
        rng = np.random.default_rng(classes)
        posterior = LaplacePosterior(
            mean=rng.normal(size=model.coefficients.size), n_train=25, prior_variance=0.3, fisher_x=data.x
        )
        jac, probs, upscale = glm_module._fisher_at_map(model, posterior, None)
        fisher = glm_module._fisher_root(jac, probs, upscale)
        kernel = glm_module._tangent_kernel(jac)
        assert kernel.shape == (10 * classes, 10 * classes)
        gram = glm_module._shifted_gram(fisher, kernel, posterior.prior_variance)
        side, oracle = gp_module.smaller_gram(fisher)
        assert side == "function"
        oracle[np.diag_indices_from(oracle)] += 1.0 / posterior.prior_variance
        assert np.abs(gram - oracle).max() <= 1e-12 * np.abs(oracle).max()
        dense = fisher.dense()
        assert np.abs(gram - dense.T @ dense - np.eye(len(gram)) / 0.3).max() <= 1e-12 * np.abs(oracle).max()

    def test_parameter_side_gram_is_the_smaller_gram(self):
        # n*(c-1) = 36 > p = 32: no tangent kernel, and the p square precision.
        model, posterior, _ = laplace_draw_setup(4, 12, "train", True)
        jac, probs, upscale = glm_module._fisher_at_map(model, posterior, None)
        fisher = glm_module._fisher_root(jac, probs, upscale)
        assert glm_module._tangent_kernel(jac) is None
        side, oracle = gp_module.smaller_gram(fisher)
        assert side == "parameter"
        oracle[np.diag_indices_from(oracle)] += 1.0 / posterior.prior_variance
        assert np.array_equal(glm_module._shifted_gram(fisher, None, posterior.prior_variance), oracle)

    @pytest.mark.parametrize(
        "cap, message",
        [
            (30 * 30 - 1, "Gram factorization needs a 30 x 30 matrix"),
            (30 * 30, "the Laplace Gram's tangent kernel needs a 40 x 40 matrix"),
        ],
        ids=["gram", "kernel"],
    )
    def test_caps_are_checked_before_anything_is_built(self, monkeypatch, cap, message):
        # The kernel side: n*(c-1) = 30 <= p = 32, mapped from the n*c = 40 square kernel.
        model, data = newton_setup(4, 10, False)
        posterior = LaplacePosterior(
            mean=np.zeros(model.coefficients.size), n_train=data.n, prior_variance=2.0, fisher_x=data.x
        )

        def unbuilt(self):
            raise AssertionError("the kernel was assembled")

        monkeypatch.setattr(gp_module, "DENSE_JACOBIAN_CAP", cap)
        monkeypatch.setattr(net_module.JacobianOperator, "layer_sensitivities", unbuilt)
        for build in (
            lambda: fit_laplace(model, data),
            lambda: fit_laplace(model, data, fisher_source="test_batch"),
            lambda: predict_class(model, posterior, data.x[:3], mode="single_sample"),
        ):
            with pytest.raises(ResourceLimitError, match=rf"^{message} \(cap {cap} entries\)$") as caught:
                build()
            assert "matrix-free" not in str(caught.value)

    def test_tangent_kernel_over_the_cap_raises_before_it_is_built(self, monkeypatch):
        # The kernel side at the unpatched cap: the 6000 square Gram fits
        # under 10^8 entries, the n*c = 12000 square kernel it would be
        # mapped from does not.
        net = init_network(MlpArchitecture(2, (100, 100), 2), seed=0)
        model = zero_coefficients_glm(net)
        x = np.random.default_rng(0).normal(size=(6000, 2))
        data = ClassificationData(x, np.arange(len(x)) % 2)

        def unbuilt(self):
            raise AssertionError("the kernel was assembled")

        monkeypatch.setattr(net_module.JacobianOperator, "layer_sensitivities", unbuilt)
        message = "^the Laplace Gram's tangent kernel needs a 12000 x 12000 matrix "
        with pytest.raises(ResourceLimitError, match=message) as caught:
            fit_laplace(model, data)
        assert "matrix-free" not in str(caught.value)

    def test_kernel_over_the_cap_raises_before_it_is_built(self, monkeypatch):
        # The kernel side: n*(c-1) = 10001 <= p = 10602, but the 10001
        # square Gram of the Fisher-mapped operator would have more than
        # 10^8 entries.
        net = init_network(MlpArchitecture(2, (100, 100), 2), seed=0)
        model = zero_coefficients_glm(net)
        x = np.random.default_rng(0).normal(size=(10001, 2))
        posterior = LaplacePosterior(
            mean=np.zeros(net.architecture.parameter_count),
            n_train=len(x),
            prior_variance=1.0,
            fisher_x=x,
        )

        def unbuilt(self):
            raise AssertionError("the kernel was assembled")

        monkeypatch.setattr(net_module.JacobianOperator, "layer_sensitivities", unbuilt)
        with pytest.raises(ResourceLimitError, match="Gram factorization needs a 10001 x 10001 ") as caught:
            predict_class(model, posterior, x[:3], mode="single_sample")
        # glm has no matrix-free draw to point the caller to.
        assert "matrix-free" not in str(caught.value)


class TestPredictClass:
    def test_rows_on_simplex(self):
        data, x_test, _ = make_blobs()
        model = blob_model()
        result = fit_map(model, data, GlmFitConfig(learning_rate=0.05, epochs=10, seed=1))
        probs, _ = predict_class(result.model, result.posterior, x_test)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_mean_mode_is_softmax_of_logits(self):
        model = blob_model()
        rng = np.random.default_rng(2)
        coeff = rng.standard_normal(model.coefficients.size)
        fitted = model.with_coefficients(coeff)
        x = rng.uniform(-2, 2, size=(5, 2))
        probs, labels = predict_class(fitted, MapPosterior(coeff), x, mode="mean")
        logits = glm_logits(fitted, x)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(
            probs, shifted / shifted.sum(axis=1, keepdims=True), rtol=0, atol=1e-15
        )
        np.testing.assert_array_equal(labels, np.argmax(probs, axis=1))

    def test_logit_shift_invariance(self):
        # Shifting every last-layer bias by the same constant moves all
        # logits of a datum together and must not move probabilities.
        net = init_network(MlpArchitecture(2, (8,), 3), seed=4)
        params = net.params.copy()
        params[-3:] += 3.7
        shifted_net = net.with_params(params)
        rng = np.random.default_rng(3)
        coeff = rng.standard_normal(net.architecture.parameter_count)
        x = rng.uniform(-2, 2, size=(6, 2))
        base = LinearizedGlm(network=net, coefficients=coeff, include_network_output=True)
        moved = LinearizedGlm(network=shifted_net, coefficients=coeff, include_network_output=True)
        probs_base, _ = predict_class(base, MapPosterior(coeff), x)
        probs_moved, _ = predict_class(moved, MapPosterior(coeff), x)
        np.testing.assert_allclose(probs_base, probs_moved, atol=1e-12)

    def test_single_sample_reproducible(self):
        data, x_test, _ = make_blobs()
        model = blob_model()
        svi = fit_svi(model, data, GlmFitConfig(learning_rate=0.05, epochs=5, seed=2))
        probs_a, _ = predict_class(model, svi.posterior, x_test, mode="single_sample", seed=11)
        probs_b, _ = predict_class(model, svi.posterior, x_test, mode="single_sample", seed=11)
        np.testing.assert_array_equal(probs_a, probs_b)
        probs_c, _ = predict_class(model, svi.posterior, x_test, mode="single_sample", seed=12)
        assert not np.array_equal(probs_a, probs_c)

    def test_laplace_single_sample_valid_and_reproducible(self):
        model, data, posterior, _ = affine_laplace_setup()
        x = np.array([[0.3], [-0.8]])
        probs_a, _ = predict_class(model, posterior, x, mode="single_sample", seed=1)
        probs_b, _ = predict_class(model, posterior, x, mode="single_sample", seed=1)
        np.testing.assert_array_equal(probs_a, probs_b)
        assert np.all(probs_a >= 0)
        np.testing.assert_allclose(probs_a.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["mean", "single_sample"])
    def test_zero_query_rows_give_empty_results_without_a_draw(self, monkeypatch, mode):
        net = init_network(MlpArchitecture(2, (8,), 3), seed=0)
        model = zero_coefficients_glm(net)
        rng = np.random.default_rng(4)
        data = ClassificationData(rng.normal(size=(6, 2)), np.arange(6) % 3)
        cfg = GlmFitConfig(learning_rate=0.05, epochs=2, batch_size=4, seed=1)
        approxes = [
            fit_map(model, data, cfg).posterior,
            fit_svi(model, data, cfg).posterior,
            fit_laplace(model, data, fisher_source="train"),
            fit_laplace(model, data, fisher_source="test_batch"),
        ]

        def no_draw(*args, **kwargs):
            raise AssertionError("drew coefficients for no query rows")

        monkeypatch.setattr(glm_module, "_laplace_draw", no_draw)
        monkeypatch.setattr(glm_module, "substream", no_draw)
        for approx in approxes:
            probs, labels = predict_class(model, approx, np.empty((0, 2)), mode=mode)
            assert probs.shape == (0, 3) and probs.dtype == np.float64
            assert labels.shape == (0,) and np.issubdtype(labels.dtype, np.integer)

    def test_bad_mode_rejected(self):
        model = blob_model()
        with pytest.raises(ContractViolationError, match="mode"):
            predict_class(model, MapPosterior(model.coefficients), np.zeros((1, 2)), mode="map")

    def test_unknown_posterior_rejected(self):
        model = blob_model()
        with pytest.raises(ContractViolationError, match="posterior"):
            predict_class(model, "not a posterior", np.zeros((1, 2)))

    def test_prediction_csv_layout(self):
        probs = np.array([[0.75, 0.25], [0.5, 0.5]])
        labels = np.array([0, 0])
        text = prediction_csv(probs, labels)
        lines = text.strip().split("\n")
        assert lines[0] == "index,label,prob_0,prob_1"
        assert lines[1] == "0,0,0.75,0.25"
        assert lines[2] == "1,0,0.5,0.5"

    @pytest.mark.parametrize(
        "probs",
        [
            np.random.default_rng(0).dirichlet(np.ones(3), size=5),
            np.zeros((2, 3)),
            np.ones((2, 2)),
            np.full((3, 2), 5e-324),
            np.zeros((0, 4)),
        ],
        ids=["random", "zeros", "ones", "subnormal", "no-rows"],
    )
    def test_prediction_table_is_the_per_cell_text(self, probs):
        # One template per row writes the bytes of one fmt_float per cell,
        # in the CSV and in the JSON cells that glm-predict splits from it.
        labels = np.argmax(probs, axis=1)
        cells = [[fmt_float(v) for v in row] for row in probs]
        header = ["index", "label"] + [f"prob_{c}" for c in range(probs.shape[1])]
        per_cell = render_csv(header, [[str(i), str(int(labels[i]))] + row for i, row in enumerate(cells)])
        assert prediction_csv(probs, labels) == per_cell
        assert [line.split(",") for line in float_lines(probs)] == cells
