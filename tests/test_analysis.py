import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tangentgp import analysis
from tangentgp.adapt import refit_last_layer
from tangentgp.analysis import StudyConfig, similarity_matrix, task_similarity_study
from tangentgp.errors import ConsistencyError, ContractViolationError, ResourceLimitError
from tangentgp.gp import _task_kernels, factor_gram
from tangentgp.net import (
    JacobianOperator,
    MlpArchitecture,
    MlpNetwork,
    OptimizerConfig,
    TaskDataset,
    forward,
    init_network,
    train,
)
from tangentgp.seeding import substream


def dense_similarity(a, b):
    return np.trace(a.T @ b @ b.T @ a) / (
        np.linalg.norm(a @ a.T) * np.linalg.norm(b @ b.T)
    )


def nets_and_inputs(arch, count, seed, n=9):
    networks = [init_network(arch, seed=seed + k) for k in range(count)]
    x = substream(seed, "similarity-x").uniform(-1.5, 1.5, size=(n, arch.input_dim))
    return networks, x


class TestJacobianSimilarity:
    """``similarity_matrix``: squared cosines of tangent kernels in kernel form."""

    @pytest.mark.parametrize(
        "arch",
        [
            MlpArchitecture(3, (7, 5), 4, activation="relu"),
            MlpArchitecture(3, (7, 5), 2, heteroscedastic=True),
        ],
        ids=["relu", "tanh-heteroscedastic"],
    )
    def test_cross_kernel_matches_dense_product(self, arch):
        (net_a, net_b), x = nets_and_inputs(arch, 2, seed=21)
        ja, jb = JacobianOperator(net_a, x), JacobianOperator(net_b, x)
        assert ja.out_dim == 4
        dense = jb.dense().T @ ja.dense()
        cross = _task_kernels(jb, ja, square=False)[1][0]
        assert np.linalg.norm(cross - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_matches_dense_trace_formula(self):
        networks, x = nets_and_inputs(MlpArchitecture(2, (16, 8), 3), 3, seed=7)
        dense = [JacobianOperator(net, x).dense() for net in networks]
        expected = [[dense_similarity(a, b) for b in dense] for a in dense]
        assert_allclose(similarity_matrix(networks, x), expected, rtol=1e-12)

    def test_self_similarity_is_one(self):
        (net,), x = nets_and_inputs(MlpArchitecture(2, (12,), 3), 1, seed=0)
        matrix = similarity_matrix([net, net], x)
        assert_array_equal(np.diag(matrix), 1.0)
        assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        (net_a, net_b), x = nets_and_inputs(MlpArchitecture(2, (8,), 2), 2, seed=4)
        forward_order = similarity_matrix([net_a, net_b], x)[0, 1]
        reverse_order = similarity_matrix([net_b, net_a], x)[0, 1]
        assert abs(forward_order - reverse_order) <= 1e-12

    def test_values_stay_in_unit_interval(self):
        for seed in range(20):
            activation = ("tanh", "relu")[seed % 2]
            arch = MlpArchitecture(2, (6,), 2, activation=activation)
            networks, x = nets_and_inputs(arch, 3, seed=100 * seed, n=5)
            matrix = similarity_matrix(networks, x)
            assert np.all(matrix >= -1e-10)
            assert np.all(matrix <= 1.0 + 1e-8)

    def test_right_orthogonal_invariance(self):
        # Reordering the shared inputs permutes the Jacobians' columns, an
        # orthogonal map on the right of both.
        networks, x = nets_and_inputs(MlpArchitecture(2, (8,), 2, activation="relu"), 3, seed=5)
        order = substream(5, "permutation").permutation(x.shape[0])
        assert_allclose(similarity_matrix(networks, x[order]), similarity_matrix(networks, x), rtol=1e-12)

    def test_non_matrix_rejected(self):
        networks, _ = nets_and_inputs(MlpArchitecture(1, (4,), 1), 2, seed=6)
        with pytest.raises(ContractViolationError, match="input_dim"):
            similarity_matrix(networks, np.ones(5))

    def test_row_count_mismatch_rejected(self):
        # Jacobian rows are parameters: 13 against 10.
        a = init_network(MlpArchitecture(1, (4,), 1), seed=0)
        b = init_network(MlpArchitecture(1, (3,), 1), seed=0)
        with pytest.raises(ConsistencyError, match="layer shapes"):
            similarity_matrix([a, b], np.zeros((3, 1)))

    def test_layer_shape_mismatch_rejected(self):
        # Both have 13 parameters, but their layers do not correspond.
        deep = init_network(MlpArchitecture(1, (2, 2), 1), seed=0)
        wide = init_network(MlpArchitecture(1, (4,), 1), seed=0)
        assert deep.architecture.parameter_count == wide.architecture.parameter_count
        with pytest.raises(ConsistencyError, match="layer shapes"):
            similarity_matrix([deep, wide], np.zeros((3, 1)))

    def test_cap_is_checked_before_any_kernel(self, monkeypatch):
        networks, x = nets_and_inputs(MlpArchitecture(2, (4,), 2), 2, seed=3, n=6)
        monkeypatch.setattr(analysis, "DENSE_JACOBIAN_CAP", 143)

        def no_kernels(*args, **kwargs):
            raise AssertionError("kernel assembled before the cap check")

        monkeypatch.setattr(analysis, "_task_kernels", no_kernels)
        with pytest.raises(ResourceLimitError, match="144 entries"):
            similarity_matrix(networks, x)


def affine_jacobian(x):
    arch = MlpArchitecture(1, (), 1, activation="identity")
    net = MlpNetwork(arch, np.array([0.8, -0.1]))
    return JacobianOperator(net, np.asarray(x, dtype=np.float64).reshape(-1, 1))


def jacobian_spectrum(jac):
    """Singular values of J, descending: square roots of its Gram factor's eigenvalues."""
    return np.sqrt(factor_gram(jac.network, jac).evals[::-1])


class TestJacobianSpectrum:
    def test_affine_single_datum_analytic(self):
        # J is the column (x, 1), so the only singular value is its norm.
        x = 1.7
        values = jacobian_spectrum(affine_jacobian([x]))
        assert_allclose(values, [np.sqrt(x * x + 1.0)], rtol=1e-12)

    def test_duplicated_datum_doubles_squared_value(self):
        x = 1.7
        single = jacobian_spectrum(affine_jacobian([x]))[0]
        doubled = jacobian_spectrum(affine_jacobian([x, x]))[0]
        assert doubled**2 == pytest.approx(2.0 * single**2, rel=1e-12)

    def test_squared_values_match_kernel_eigenvalues(self):
        net = init_network(MlpArchitecture(2, (6,), 1), seed=3)
        x = substream(3, "spectrum-x").uniform(-1.0, 1.0, size=(12, 2))
        jac = JacobianOperator(net, x)
        values = np.linalg.svd(jac.dense(), compute_uv=False)
        kernel_eigs = jacobian_spectrum(jac) ** 2
        assert_allclose(values**2, kernel_eigs, rtol=1e-6, atol=1e-12)

    def test_sorted_descending_and_nonnegative(self):
        net = init_network(MlpArchitecture(1, (8,), 1), seed=11)
        x = substream(11, "spectrum-x").uniform(-2.0, 2.0, size=(20, 1))
        values = jacobian_spectrum(JacobianOperator(net, x))
        assert np.all(values >= 0.0)
        assert np.all(np.diff(values) <= 1e-12)


def two_blob_labels(rng, n):
    half = n // 2
    x = np.vstack(
        [
            rng.normal((-1.5, -1.5), 0.6, size=(half, 2)),
            rng.normal((1.5, 1.5), 0.6, size=(n - half, 2)),
        ]
    )
    labels = np.array([0] * half + [1] * (n - half))
    return x, labels


def one_hot(labels, num_classes=2):
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def mean_cross_entropy(net, x, labels):
    logits = forward(net, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(labels.size), labels].mean()


class TestRetrainFinalLayer:
    """The study's head realignment: full-batch Adam on cross-entropy."""

    def setup_method(self):
        self.x, self.labels = two_blob_labels(np.random.default_rng(20), 60)
        self.net = init_network(MlpArchitecture(2, (12,), 2), seed=6)

    def retrain(self, steps):
        data = TaskDataset(self.x, one_hot(self.labels), noise_variance=1.0)
        cfg = OptimizerConfig(
            optimizer="adam",
            loss="categorical-ce",
            batch_size=data.n,
            epochs=steps,
            learning_rate=0.05,
        )
        return refit_last_layer(self.net, [data], cfg)[0]

    def test_only_final_layer_changes(self):
        refit = self.retrain(steps=50)
        w_slice, b_slice, _, _ = self.net.architecture.layer_slices()[-1]
        assert_array_equal(
            refit.params[: w_slice.start], self.net.params[: w_slice.start]
        )
        assert not np.array_equal(refit.params[w_slice], self.net.params[w_slice])
        assert not np.array_equal(refit.params[b_slice], self.net.params[b_slice])

    def test_reduces_cross_entropy(self):
        before = mean_cross_entropy(self.net, self.x, self.labels)
        refit = self.retrain(steps=300)
        after = mean_cross_entropy(refit, self.x, self.labels)
        assert after < before
        assert after < 0.2

    def test_zero_steps_is_identity(self):
        refit = self.retrain(steps=0)
        assert_array_equal(refit.params, self.net.params)


def small_study_config(**overrides):
    defaults = dict(
        models_per_group=2,
        train_points=60,
        eval_points=24,
        epochs=12,
        batch_size=20,
        realign_steps=150,
        seed=0,
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestStudyConfig:
    def test_rejects_empty_groups(self):
        with pytest.raises(ContractViolationError, match="at least one model"):
            StudyConfig(models_per_group=0)

    def test_rejects_non_classifier_architectures(self):
        with pytest.raises(ContractViolationError, match="2-class"):
            StudyConfig(architecture=MlpArchitecture(2, (16,), 1))
        with pytest.raises(ContractViolationError, match="2-class"):
            StudyConfig(architecture=MlpArchitecture(2, (16,), 2, heteroscedastic=True))

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ContractViolationError, match="at least 2 train"):
            StudyConfig(train_points=1)


class TestSimilarityStudy:
    def test_same_seed_same_data_models_are_identical(self):
        rng = np.random.default_rng(9)
        x, labels = two_blob_labels(rng, 50)
        data = TaskDataset(x, one_hot(labels), noise_variance=1.0)
        cfg = OptimizerConfig(
            optimizer="adam",
            learning_rate=5e-3,
            epochs=8,
            batch_size=16,
            loss="categorical-ce",
            seed=13,
        )
        net = init_network(MlpArchitecture(2, (16,), 2), seed=13)
        first = train(net, data, cfg).network
        second = train(net, data, cfg).network
        eval_x = rng.uniform(-2.0, 2.0, size=(20, 2))
        assert_array_equal(first.params, second.params)
        assert similarity_matrix([first, second], eval_x)[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_three_group_study_prefers_same_distribution(self):
        report = task_similarity_study(small_study_config(models_per_group=3))
        assert report.within_same_distribution_mean > report.cross_distribution_mean

    def test_report_matrix_invariants(self):
        report = task_similarity_study(small_study_config())
        m = report.matrix
        assert m.shape == (6, 6)
        assert_allclose(np.diag(m), 1.0, atol=1e-8)
        assert_array_equal(m, m.T)
        assert np.all(m >= -1e-10)
        assert np.all(m <= 1.0 + 1e-8)
        assert report.model_ids[0] == "base-a-0"
        assert report.model_ids[-1] == "shifted-1"
        assert report.distribution_ids == (0, 0, 0, 0, 1, 1)

    def test_single_model_groups_degenerate_to_one_within_pair(self):
        report = task_similarity_study(small_study_config(models_per_group=1, epochs=5))
        assert report.matrix.shape == (3, 3)
        # base-a vs base-b is the only same-distribution pair.
        assert report.within_same_distribution_mean == pytest.approx(
            report.matrix[0, 1]
        )
        assert report.cross_distribution_mean == pytest.approx(
            (report.matrix[0, 2] + report.matrix[1, 2]) / 2.0
        )

    def test_study_is_deterministic(self):
        cfg = small_study_config(models_per_group=1, epochs=5)
        first = task_similarity_study(cfg)
        second = task_similarity_study(cfg)
        assert_array_equal(first.matrix, second.matrix)

    def test_report_serialization(self):
        report = task_similarity_study(small_study_config(models_per_group=1, epochs=5))
        payload = json.loads(report.to_json())
        assert payload["model_ids"] == ["base-a-0", "base-b-0", "shifted-0"]
        assert payload["summary"]["within_pairs"] == 1
        assert payload["summary"]["cross_pairs"] == 2
        assert len(payload["matrix"]) == 3
        lines = report.to_csv().splitlines()
        assert lines[0] == "model_a,model_b,similarity"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("base-a-0,base-a-0,1")
