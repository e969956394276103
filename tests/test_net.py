"""Network forward/derivative products against analytic and FD oracles."""

import math

import numpy as np
import pytest

import tangentgp.net as net_module
from tangentgp.errors import (
    ContractViolationError,
    ResourceLimitError,
    TrainingDivergenceError,
)
from tangentgp.net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    JacobianOperator,
    MlpArchitecture,
    MlpNetwork,
    OptimizerConfig,
    SgdMomentum,
    TaskDataset,
    _loss_and_output_grad,
    _minibatches,
    forward,
    init_network,
    make_optimizer,
    train,
)
from tangentgp.seeding import substream


def affine_net(weight=2.0, bias=1.0):
    arch = MlpArchitecture(input_dim=1, hidden_widths=(), output_dim=1, activation="identity")
    return MlpNetwork(arch, np.array([weight, bias]))


def seeded_net(dims, activation="tanh", seed=0, heteroscedastic=False):
    arch = MlpArchitecture(
        input_dim=dims[0],
        hidden_widths=tuple(dims[1:-1]),
        output_dim=dims[-1],
        activation=activation,
        heteroscedastic=heteroscedastic,
    )
    return init_network(arch, seed=seed)


def reference_mse_train(params, dims, activation, x, y, cfg):
    """Minibatch MSE training written out in plain numpy, independent of ``net``.

    Unpacks the flat vector per step, runs forward and backward passes by
    hand and applies the update formulas inline, drawing the batch order
    from the same seeded stream as ``train``.
    """

    def unpack(theta):
        layers, offset = [], 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = theta[offset : offset + fan_in * fan_out].reshape(fan_out, fan_in)
            offset += fan_in * fan_out
            layers.append((w, theta[offset : offset + fan_out]))
            offset += fan_out
        return layers

    def run(layers, h):
        inputs, slopes = [], []
        for w, b in layers[:-1]:
            inputs.append(h)
            z = h @ w.T + b
            if activation == "tanh":
                h = np.tanh(z)
                slopes.append(1.0 - h * h)
            else:
                h = np.maximum(z, 0.0)
                slopes.append((z > 0.0).astype(np.float64))
        inputs.append(h)
        w, b = layers[-1]
        return h @ w.T + b, inputs, slopes

    rng = substream(cfg.seed, "train")
    theta = params.copy()
    velocity = np.zeros_like(theta)
    m = np.zeros_like(theta)
    u = np.zeros_like(theta)
    step = 0
    trace = []
    n = x.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            layers = unpack(theta)
            out, inputs, slopes = run(layers, x[batch])
            r = out - y[batch]
            delta = (2.0 / r.size) * r
            pieces = []
            for idx in range(len(layers) - 1, -1, -1):
                pieces = [(delta.T @ inputs[idx]).ravel(), delta.sum(axis=0)] + pieces
                if idx > 0:
                    delta = (delta @ layers[idx][0]) * slopes[idx - 1]
            grad = np.concatenate(pieces)
            step += 1
            if cfg.optimizer == "sgd-momentum":
                velocity = cfg.momentum * velocity - cfg.learning_rate * grad
                theta = theta + velocity
            else:
                m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
                u = ADAM_BETA2 * u + (1 - ADAM_BETA2) * grad * grad
                m_hat = m / (1 - ADAM_BETA1**step)
                u_hat = u / (1 - ADAM_BETA2**step)
                theta = theta - cfg.learning_rate * m_hat / (np.sqrt(u_hat) + ADAM_EPS)
        r = run(unpack(theta), x)[0] - y
        trace.append(np.mean(r * r))
    return theta, np.array(trace)


def reference_operator_train(network, data, cfg):
    """Minibatch training with a validated network and an operator's ``vjp`` per step.

    The loop ``train`` ran before it bound one parameter buffer per run:
    any loss, any architecture, the optimizer ``cfg`` names.
    """
    rng = substream(cfg.seed, "train")
    theta = network.params.copy()
    optimizer = make_optimizer(cfg, theta.shape)
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(data.n)
        x, y = data.x[order], data.y[order]
        for start in range(0, data.n, cfg.batch_size):
            stop = start + cfg.batch_size
            jac = JacobianOperator(network.with_params(theta), x[start:stop])
            _, out_grad = _loss_and_output_grad(jac.outputs, y[start:stop], cfg.loss)
            theta = optimizer.step(theta, jac.vjp(out_grad.ravel()))
        outputs = forward(network.with_params(theta), data.x)
        trace.append(_loss_and_output_grad(outputs, data.y, cfg.loss)[0])
    return theta, np.array(trace)


class TestArchitecture:
    def test_parameter_count(self):
        arch = MlpArchitecture(input_dim=2, hidden_widths=(16,), output_dim=2)
        assert arch.parameter_count == (2 + 1) * 16 + (16 + 1) * 2

    def test_heteroscedastic_doubles_internal_output(self):
        arch = MlpArchitecture(input_dim=3, hidden_widths=(8,), output_dim=2, heteroscedastic=True)
        assert arch.output_dim == 2
        assert arch.internal_output_dim == 4

    def test_rejects_unknown_activation(self):
        with pytest.raises(ContractViolationError):
            MlpArchitecture(input_dim=1, hidden_widths=(), output_dim=1, activation="gelu")

    def test_init_distribution_bounds(self):
        net = seeded_net([4, 32, 2], seed=3)
        for (w_sl, b_sl, fan_in, _), (w, b) in zip(
            net.architecture.layer_slices(), net.layers()
        ):
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
            assert np.all(b == 0.0)

    def test_network_rejects_wrong_length_and_nan(self):
        arch = MlpArchitecture(input_dim=1, hidden_widths=(), output_dim=1, activation="identity")
        with pytest.raises(ContractViolationError):
            MlpNetwork(arch, np.zeros(3))
        with pytest.raises(ContractViolationError):
            MlpNetwork(arch, np.array([np.nan, 0.0]))

    def test_with_params_copies_its_input(self):
        net = seeded_net([2, 6, 3], seed=2)
        x = np.random.default_rng(2).standard_normal((4, 2))
        source = net.params + 0.5
        moved = net.with_params(source)
        params = moved.params.copy()
        layers = [(w.copy(), b.copy()) for w, b in moved.layers()]
        out = forward(moved, x)
        source[:] = 7.0
        assert np.array_equal(moved.params, params)
        for (w, b), (w0, b0) in zip(moved.layers(), layers):
            assert np.array_equal(w, w0) and np.array_equal(b, b0)
            assert not w.flags.writeable and not b.flags.writeable
        assert np.array_equal(forward(moved, x), out)
        assert not moved.params.flags.writeable


class TestForward:
    def test_affine_map(self):
        np.testing.assert_allclose(forward(affine_net(), [[3.0]]), [[7.0]])

    def test_zero_network_is_zero(self):
        arch = MlpArchitecture(input_dim=2, hidden_widths=(5, 5), output_dim=1)
        net = MlpNetwork(arch, np.zeros(arch.parameter_count))
        x = np.random.default_rng(0).standard_normal((4, 2))
        np.testing.assert_allclose(forward(net, x), np.zeros((4, 1)))

    def test_matches_hand_rolled_pass(self):
        # Independent forward implementation: unpack the flat vector by
        # hand and chain the affine maps explicitly.
        net = seeded_net([1, 8, 1], seed=11)
        theta = net.params
        w1 = theta[0:8].reshape(8, 1)
        b1 = theta[8:16]
        w2 = theta[16:24].reshape(1, 8)
        b2 = theta[24:25]
        x = np.array([[0.5]])
        expected = np.tanh(x @ w1.T + b1) @ w2.T + b2
        np.testing.assert_allclose(forward(net, x), expected, rtol=1e-15)

    def test_heteroscedastic_output_pairs(self):
        net = seeded_net([2, 6, 2], seed=4, heteroscedastic=True)
        out = forward(net, np.zeros((3, 2)))
        assert out.shape == (3, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            forward(affine_net(), np.ones((2, 3)))


class TestVjp:
    def test_zero_cotangent(self):
        jac = JacobianOperator(seeded_net([2, 8, 2], seed=1), np.ones((3, 2)))
        np.testing.assert_allclose(jac.vjp(np.zeros(jac.out_len)), np.zeros(jac.param_count))

    def test_affine_analytic_gradient(self):
        # f(x) = W x + b with two outputs; the gradient of output 0 puts
        # x into the first weight row and e_0 into the bias block.
        arch = MlpArchitecture(input_dim=2, hidden_widths=(), output_dim=2, activation="identity")
        net = MlpNetwork(arch, np.arange(6, dtype=float))
        x = np.array([[3.0, -1.0]])
        jac = JacobianOperator(net, x)
        u = np.array([1.0, 0.0])
        np.testing.assert_allclose(jac.vjp(u), [3.0, -1.0, 0.0, 0.0, 1.0, 0.0])

    def test_matches_dense_columns(self):
        rng = np.random.default_rng(5)
        jac = JacobianOperator(seeded_net([2, 16, 2], seed=5), rng.standard_normal((3, 2)))
        dense = jac.dense()
        for _ in range(5):
            u = rng.standard_normal(jac.out_len)
            np.testing.assert_allclose(jac.vjp(u), dense @ u, rtol=1e-10, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        jac = JacobianOperator(seeded_net([3, 10, 1], seed=6), rng.standard_normal((4, 3)))
        u1 = rng.standard_normal(jac.out_len)
        u2 = rng.standard_normal(jac.out_len)
        alpha = 0.37
        np.testing.assert_allclose(
            jac.vjp(alpha * u1 + u2),
            alpha * jac.vjp(u1) + jac.vjp(u2),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_non_finite_rejected(self):
        jac = JacobianOperator(seeded_net([1, 4, 1], seed=7), np.ones((2, 1)))
        u = np.zeros(jac.out_len)
        u[0] = np.inf
        with pytest.raises(ContractViolationError):
            jac.vjp(u)


class TestJvp:
    def test_zero_tangent(self):
        jac = JacobianOperator(seeded_net([2, 8, 2], seed=8), np.ones((3, 2)))
        np.testing.assert_allclose(jac.jvp(np.zeros(jac.param_count)), np.zeros(jac.out_len))

    def test_affine_bias_perturbation(self):
        net = affine_net()
        jac = JacobianOperator(net, np.array([[1.0], [4.0], [-2.0]]))
        v = np.array([0.0, 0.25])
        np.testing.assert_allclose(jac.jvp(v), [0.25, 0.25, 0.25])

    def test_adjoint_identity(self):
        rng = np.random.default_rng(9)
        jac = JacobianOperator(seeded_net([2, 16, 2], seed=9), rng.standard_normal((3, 2)))
        for _ in range(20):
            u = rng.standard_normal(jac.out_len)
            v = rng.standard_normal(jac.param_count)
            lhs = u @ jac.jvp(v)
            rhs = jac.vjp(u) @ v
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_matches_dense_transpose(self):
        rng = np.random.default_rng(10)
        jac = JacobianOperator(seeded_net([2, 12, 3], seed=10), rng.standard_normal((4, 2)))
        dense = jac.dense()
        for _ in range(5):
            v = rng.standard_normal(jac.param_count)
            np.testing.assert_allclose(jac.jvp(v), dense.T @ v, rtol=1e-10, atol=1e-12)


class TestDenseJacobian:
    def test_affine_rows(self):
        jac = JacobianOperator(affine_net(), np.array([[1.0], [2.0]]))
        np.testing.assert_allclose(jac.dense(), np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_finite_difference_oracle(self):
        net = seeded_net([1, 8, 1], seed=12)
        x = np.array([[0.3], [-0.7], [1.1]])
        jac = JacobianOperator(net, x)
        dense = jac.dense()
        step = 1e-5
        fd = np.empty_like(dense)
        for k in range(net.architecture.parameter_count):
            bump = np.zeros_like(net.params)
            bump[k] = step
            hi = forward(net.with_params(net.params + bump), x)
            lo = forward(net.with_params(net.params - bump), x)
            fd[k] = ((hi - lo) / (2 * step)).ravel()
        np.testing.assert_allclose(dense, fd, rtol=1e-4, atol=1e-9)

    def test_heteroscedastic_column_ordering(self):
        # Column i*o + c of the dense Jacobian must be the vjp of the
        # one-hot cotangent at (datum i, internal channel c).
        rng = np.random.default_rng(13)
        jac = JacobianOperator(
            seeded_net([2, 6, 1], seed=13, heteroscedastic=True), rng.standard_normal((3, 2))
        )
        dense = jac.dense()
        assert dense.shape == (jac.param_count, 6)
        for i in range(3):
            for c in range(2):
                u = np.zeros(6)
                u[i * 2 + c] = 1.0
                np.testing.assert_allclose(dense[:, i * 2 + c], jac.vjp(u), rtol=1e-12)

    def test_selected_channels_match_vjp_columns(self):
        # Two hidden layers, heteroscedastic (4 internal outputs), and the
        # channels picked out of order: column i*2 + k is channel (2, 0)[k].
        rng = np.random.default_rng(15)
        net = seeded_net([3, 7, 5, 2], seed=15, heteroscedastic=True)
        jac = JacobianOperator(net, rng.standard_normal((4, 3)), channels=(2, 0))
        dense = jac.dense()
        assert dense.shape == (jac.param_count, 8)
        for col in range(8):
            u = np.zeros(8)
            u[col] = 1.0
            np.testing.assert_allclose(dense[:, col], jac.vjp(u), rtol=1e-12, atol=1e-15)

    def test_cap_exceeded(self, monkeypatch):
        jac = JacobianOperator(seeded_net([2, 16, 2], seed=14), np.ones((3, 2)))
        monkeypatch.setattr(net_module, "DENSE_JACOBIAN_CAP", 10)
        with pytest.raises(ResourceLimitError, match="matrix-free"):
            jac.dense()


class TestOutputMap:
    """Operators under an output map: B = J blockdiag(M_i')."""

    N = 5

    @staticmethod
    def operator(kind):
        """(operator, its dense B from the unmapped Jacobian J) for one kind of map."""
        rng = np.random.default_rng(16)
        net = seeded_net([3, 7, 5, 2], seed=16, heteroscedastic=True)  # 4 internal outputs
        x = rng.standard_normal((TestOutputMap.N, 3))
        full = JacobianOperator(net, x)
        blocks = np.split(full.dense(), TestOutputMap.N, axis=1)
        if kind == "channels":
            maps = np.broadcast_to(np.eye(4)[[2, 0]], (TestOutputMap.N, 2, 4))
            jac = JacobianOperator(net, x, channels=(2, 0))
        elif kind == "per-datum":
            maps = rng.standard_normal((TestOutputMap.N, 3, 4))
            jac = full.mapped(maps)
        else:  # a per-datum map on top of a channel selection
            inner = rng.standard_normal((TestOutputMap.N, 3, 2))
            maps = inner @ np.eye(4)[[2, 0]]
            jac = JacobianOperator(net, x, channels=(2, 0)).mapped(inner)
        dense = np.hstack([j_i @ m.T for j_i, m in zip(blocks, maps)])
        return jac, dense, maps

    KINDS = ["channels", "per-datum", "composed"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_is_the_mapped_jacobian(self, kind):
        jac, want, maps = self.operator(kind)
        assert jac.out_dim == maps.shape[1] and jac.out_len == want.shape[1]
        assert jac.maps_per_datum == (kind != "channels")
        dense = jac.dense()
        assert np.max(np.abs(dense - want)) <= 1e-12 * np.max(np.abs(want))
        for col in range(jac.out_len):  # column i*k + a is the vjp of one-hot (i, a)
            np.testing.assert_allclose(dense[:, col], jac.vjp(np.eye(jac.out_len)[col]), rtol=1e-12, atol=1e-15)
        outputs = forward(jac.network, jac.inputs)
        np.testing.assert_allclose(jac.outputs, (maps @ outputs[:, :, None])[:, :, 0], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_jvp_and_vjp_are_adjoint(self, kind):
        jac, _, _ = self.operator(kind)
        rng = np.random.default_rng(17)
        for _ in range(3):
            u, v = rng.standard_normal(jac.out_len), rng.standard_normal(jac.param_count)
            lhs, rhs = float(u @ jac.jvp(v)), float(jac.vjp(u) @ v)
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(jac.dense(), 2) * np.linalg.norm(v)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_slice_the_map(self, kind):
        jac, _, maps = self.operator(kind)
        part = jac.rows(1, 4)
        rebuilt = JacobianOperator(jac.network, jac.inputs[1:4]).mapped(maps[1:4])
        assert part.out_len == rebuilt.out_len == 3 * maps.shape[1]
        np.testing.assert_allclose(part.dense(), rebuilt.dense(), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(part.outputs, rebuilt.outputs, rtol=1e-13, atol=1e-15)
        v = np.random.default_rng(18).standard_normal(jac.param_count)
        np.testing.assert_allclose(part.jvp(v), rebuilt.jvp(v), rtol=1e-13, atol=1e-15)

    def test_bad_maps_rejected(self):
        jac = JacobianOperator(seeded_net([2, 6, 3], seed=19), np.ones((4, 2)))
        for shape in ((4, 2), (3, 2, 3), (4, 2, 2)):
            with pytest.raises(ContractViolationError, match="output map of shape"):
                jac.mapped(np.ones(shape))
        with pytest.raises(ContractViolationError, match="non-finite"):
            jac.mapped(np.full((4, 2, 3), np.nan))


class TestTaskDataset:
    def test_rejects_bad_shapes_and_noise(self):
        with pytest.raises(ContractViolationError):
            TaskDataset(np.ones((2, 1)), np.ones((3, 1)), noise_variance=0.1)
        with pytest.raises(ContractViolationError):
            TaskDataset(np.ones((2, 1)), np.ones((2, 1)), noise_variance=0.0)
        with pytest.raises(ContractViolationError, match="noise variance must be finite, got inf"):
            TaskDataset(np.ones((2, 1)), np.ones((2, 1)), noise_variance=np.inf)
        with pytest.raises(ContractViolationError):
            TaskDataset(np.array([[np.nan]]), np.ones((1, 1)), noise_variance=0.1)


class TestTrain:
    def test_realizable_linear_target(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(-1, 1, size=(32, 1))
        data = TaskDataset(x, 3.0 * x + 0.5, noise_variance=1e-4)
        cfg = OptimizerConfig(optimizer="adam", learning_rate=0.05, epochs=300, batch_size=8, seed=0)
        result = train(affine_net(weight=0.0, bias=0.0), data, cfg)
        assert result.loss_trace[-1] <= 1e-6

    def test_sinusoid_fit_beats_target_variance(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-5, 5, size=(20, 1))
        y = 2.0 * np.sin(1.3 * x + 0.4)
        data = TaskDataset(x, y, noise_variance=0.04)
        net = seeded_net([1, 40, 40, 1], seed=21)
        cfg = OptimizerConfig(
            optimizer="sgd-momentum", learning_rate=1e-3, epochs=800, batch_size=3,
            momentum=0.9, seed=1,
        )
        result = train(net, data, cfg)
        assert result.loss_trace[-1] < np.var(y)

    def test_zero_learning_rate_keeps_parameters(self):
        data = TaskDataset(np.ones((4, 1)), np.ones((4, 1)), noise_variance=0.1)
        net = seeded_net([1, 8, 1], seed=22)
        cfg = OptimizerConfig(learning_rate=0.0, epochs=3, batch_size=2, seed=5)
        result = train(net, data, cfg)
        assert np.array_equal(result.network.params, net.params)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((16, 2))
        data = TaskDataset(x, np.tanh(x[:, :1]), noise_variance=0.01)
        net = seeded_net([2, 12, 1], seed=23)
        cfg = OptimizerConfig(epochs=20, batch_size=4, seed=9)
        a = train(net, data, cfg)
        b = train(net, data, cfg)
        assert np.array_equal(a.network.params, b.network.params)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((8, 1))
        data = TaskDataset(x, 2.0 * x, noise_variance=0.1)
        cfg = OptimizerConfig(learning_rate=1e8, epochs=50, batch_size=8, seed=2)
        with pytest.raises(TrainingDivergenceError) as info:
            train(affine_net(), data, cfg)
        assert info.value.epoch is not None

    @pytest.mark.parametrize("optimizer", ["sgd-momentum", "adam"])
    def test_mid_epoch_overflow_reports_divergence(self, optimizer):
        # The first update overflows the parameters; the next step of the
        # same epoch must report divergence, not reject its own input.
        rng = np.random.default_rng(24)
        x = rng.standard_normal((8, 1))
        data = TaskDataset(x, 2.0 * x, noise_variance=0.1)
        cfg = OptimizerConfig(
            optimizer=optimizer, learning_rate=1.7e308, epochs=3, batch_size=2, seed=2
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergenceError) as info:
                train(affine_net(), data, cfg)
        assert info.value.epoch == 0

    def test_overflowing_output_gradient_reports_divergence(self):
        # r = 1e150 and a variance near 1e-5 give a finite loss (about
        # 5e304) but a raw-scale gradient of about 1e310, which overflows.
        arch = MlpArchitecture(1, (), 1, activation="identity", heteroscedastic=True)
        net = MlpNetwork(arch, np.array([1e150, 0.0, 0.0, -20.0]))
        data = TaskDataset(np.ones((1, 1)), np.zeros((1, 1)), noise_variance=0.1)
        cfg = OptimizerConfig(
            learning_rate=0.0, epochs=2, batch_size=1, loss="heteroscedastic-gaussian"
        )
        with pytest.raises(TrainingDivergenceError, match="output gradient") as info:
            train(net, data, cfg)
        assert info.value.epoch == 0

    def test_heteroscedastic_loss_decreases(self):
        rng = np.random.default_rng(25)
        x = rng.uniform(-1, 1, size=(24, 1))
        y = 0.5 * x + rng.normal(0, 0.1, size=(24, 1))
        data = TaskDataset(x, y, noise_variance=0.01)
        net = seeded_net([1, 16, 1], seed=25, heteroscedastic=True)
        cfg = OptimizerConfig(
            optimizer="adam", learning_rate=1e-2, epochs=60, batch_size=8,
            loss="heteroscedastic-gaussian", seed=3,
        )
        result = train(net, data, cfg)
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_categorical_loss_learns_separable_labels(self):
        rng = np.random.default_rng(26)
        x = np.vstack([rng.normal(-2, 0.3, (16, 2)), rng.normal(2, 0.3, (16, 2))])
        y = np.zeros((32, 2))
        y[:16, 0] = 1.0
        y[16:, 1] = 1.0
        data = TaskDataset(x, y, noise_variance=1.0)
        net = seeded_net([2, 8, 2], seed=26)
        cfg = OptimizerConfig(
            optimizer="adam", learning_rate=0.05, epochs=80, batch_size=8,
            loss="categorical-ce", seed=4,
        )
        result = train(net, data, cfg)
        probs = forward(result.network, x)
        assert np.mean(np.argmax(probs, axis=1) == np.argmax(y, axis=1)) == 1.0

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("optimizer", ["sgd-momentum", "adam"])
    def test_bitwise_equal_to_reference_loop(self, activation, optimizer):
        dims = [2, 7, 5, 2]
        rng = np.random.default_rng(27)
        x = rng.standard_normal((18, 2))
        y = np.hstack([np.sin(x[:, :1]), x[:, 1:] * x[:, :1]])
        net = seeded_net(dims, activation=activation, seed=27)
        cfg = OptimizerConfig(
            optimizer=optimizer, learning_rate=0.02, epochs=12, batch_size=4, seed=8
        )
        result = train(net, TaskDataset(x, y, noise_variance=0.1), cfg)
        params, trace = reference_mse_train(net.params, dims, activation, x, y, cfg)
        assert np.array_equal(result.network.params, params)
        assert np.array_equal(result.loss_trace, trace)

    @pytest.mark.parametrize(
        "dims, activation, loss",
        [
            ([2, 6, 3], "tanh", "categorical-ce"),
            ([1, 8, 5, 1], "relu", "heteroscedastic-gaussian"),
            ([3, 2], "identity", "mse"),  # no hidden layer: a one-layer backward pass
        ],
        ids=["categorical-ce", "heteroscedastic", "no-hidden-layer"],
    )
    @pytest.mark.parametrize("optimizer", ["sgd-momentum", "adam"])
    def test_bitwise_equal_to_per_step_operator_loop(self, dims, activation, loss, optimizer):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((11, dims[0]))
        if loss == "categorical-ce":
            y = np.eye(dims[-1])[rng.integers(0, dims[-1], size=11)]
        else:
            y = rng.standard_normal((11, dims[-1]))
        net = seeded_net(
            dims, activation=activation, seed=29, heteroscedastic=loss == "heteroscedastic-gaussian"
        )
        before = net.params.copy()
        data = TaskDataset(x, y, noise_variance=0.1)
        cfg = OptimizerConfig(
            optimizer=optimizer, learning_rate=0.03, epochs=9, batch_size=4, loss=loss, seed=6
        )
        result = train(net, data, cfg)
        params, trace = reference_operator_train(net, data, cfg)
        assert np.array_equal(result.network.params, params)
        assert np.array_equal(result.loss_trace, trace)
        assert np.array_equal(net.params, before)
        assert not result.network.params.flags.writeable
        assert not np.shares_memory(result.network.params, net.params)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ContractViolationError):
            OptimizerConfig(optimizer="lbfgs")

    @pytest.mark.parametrize("momentum", [-3.0, -1e-12, 1.0, 2.5, math.inf, math.nan])
    def test_rejects_momentum_outside_unit_interval(self, momentum):
        with pytest.raises(ContractViolationError, match=r"momentum must lie in \[0, 1\)"):
            OptimizerConfig(optimizer="sgd-momentum", momentum=momentum)

    @pytest.mark.parametrize("learning_rate", [-1e-3, math.inf, -math.inf, math.nan])
    def test_rejects_a_learning_rate_that_is_not_nonnegative_and_finite(self, learning_rate):
        with pytest.raises(ContractViolationError, match="learning rate must be nonnegative and finite"):
            OptimizerConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("momentum", [0.0, 0.9, 0.999])
    def test_accepts_momentum_in_unit_interval(self, momentum):
        assert OptimizerConfig(optimizer="sgd-momentum", momentum=momentum).momentum == momentum


class TestMinibatches:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_batches_are_slices_of_one_gather(self, axis):
        # 11 entries in batches of 4: 4, 4, then a short batch of 3.
        rng = np.random.default_rng(30)
        a = rng.standard_normal((11, 3) if axis == 0 else (2, 11, 3))
        b = rng.integers(0, 5, size=(11,) if axis == 0 else (2, 11, 1))
        order = substream(7, "train").permutation(11)
        batches = list(_minibatches(substream(7, "train"), 4, a, b, axis=axis))
        assert [x.shape[axis] for x, _ in batches] == [4, 4, 3]
        take = (lambda v, s: v[order][s : s + 4]) if axis == 0 else (lambda v, s: v[:, order][:, s : s + 4])
        for (x, y), start in zip(batches, range(0, 11, 4)):
            assert np.array_equal(x, take(a, start)) and np.array_equal(y, take(b, start))

    def test_draws_one_permutation_per_epoch(self):
        rng, reference = substream(8, "train"), substream(8, "train")
        x = np.arange(10.0)[:, None]
        for _ in range(3):
            batches = _minibatches(rng, 3, x, x)
            reference.permutation(10)
            # The draw happens at the call, before the first batch is taken.
            assert rng.bit_generator.state == reference.bit_generator.state
            assert len(list(batches)) == 4
        assert rng.standard_normal() == reference.standard_normal()


class TestOptimizers:
    """The in-place steps against the allocating textbook formulas, bit for bit."""

    @staticmethod
    def gradients(shape, steps, seed):
        # Gradients of varying magnitude, a few exactly zero, so both
        # moments see growth, decay and the bias corrections of every step.
        rng = np.random.default_rng(seed)
        for k in range(steps):
            grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 3)
            grad[rng.random(shape) < 0.05] = 0.0
            yield k + 1, grad

    @pytest.mark.parametrize("shape", [(1316,), (20, 41)])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd-momentum"])
    def test_bitwise_equal_to_textbook_formula(self, optimizer, shape):
        lr, momentum = 3e-3, 0.9
        opt = make_optimizer(
            OptimizerConfig(optimizer=optimizer, learning_rate=lr, momentum=momentum), shape
        )
        theta = np.random.default_rng(33).standard_normal(shape)
        ref, m, u, velocity = theta.copy(), np.zeros(shape), np.zeros(shape), np.zeros(shape)
        for step, grad in self.gradients(shape, 250, seed=34):
            theta = opt.step(theta, grad)
            if optimizer == "adam":
                m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
                u = ADAM_BETA2 * u + (1 - ADAM_BETA2) * grad * grad
                m_hat = m / (1 - ADAM_BETA1**step)
                u_hat = u / (1 - ADAM_BETA2**step)
                ref = ref - lr * m_hat / (np.sqrt(u_hat) + ADAM_EPS)
            else:
                velocity = momentum * velocity - lr * grad
                ref = ref + velocity
            assert np.array_equal(theta, ref), f"step {step}"

    @pytest.mark.parametrize("optimizer", ["adam", "sgd-momentum"])
    def test_step_leaves_its_arguments_and_results_alone(self, optimizer):
        # Callers reuse their gradient buffers and keep earlier parameters:
        # a step writes only into the optimizer's own state.
        cfg = OptimizerConfig(optimizer=optimizer, learning_rate=0.1)
        opt = make_optimizer(cfg, (4, 7))
        assert isinstance(opt, Adam if optimizer == "adam" else SgdMomentum)
        rng = np.random.default_rng(37)
        params, grad = rng.standard_normal((4, 7)), rng.standard_normal((4, 7))
        params_before, grad_before = params.copy(), grad.copy()
        first = opt.step(params, grad)
        first_before = first.copy()
        second = opt.step(first, grad)
        assert np.array_equal(params, params_before)
        assert np.array_equal(grad, grad_before)
        assert np.array_equal(first, first_before)
        for out in (first, second):
            assert not np.shares_memory(out, params) and not np.shares_memory(out, grad)


class TestLoss:
    @pytest.mark.parametrize("loss", ["mse", "heteroscedastic-gaussian", "categorical-ce"])
    def test_stack_equals_per_slice_calls(self, loss):
        # A (T, b, o) stack of outputs reduces over its last two axes: each
        # slice's loss and gradient are bitwise the 2-D call on that slice.
        rng = np.random.default_rng(28)
        t, b, o = 5, 37, 3
        width = 2 * o if loss == "heteroscedastic-gaussian" else o
        outputs = 3.0 * rng.standard_normal((t, b, width))
        if loss == "categorical-ce":
            y = np.eye(o)[rng.integers(0, o, size=(t, b))]
        else:
            y = rng.standard_normal((t, b, o))
        values, grads = _loss_and_output_grad(outputs, y, loss)
        assert values.shape == (t,) and grads.shape == outputs.shape
        for k in range(t):
            value, grad = _loss_and_output_grad(outputs[k], y[k], loss)
            assert values[k] == value
            assert np.array_equal(grads[k], grad)


class TestCheckpoints:
    """Fingerprints tie checkpoints and posterior caches to their parameters."""

    def test_fingerprint_tracks_parameters(self):
        net = seeded_net([1, 4, 1], seed=32)
        bumped = net.with_params(net.params + 1e-12)
        assert net.fingerprint() == net.fingerprint()
        assert net.fingerprint() != bumped.fingerprint()
