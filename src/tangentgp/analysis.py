"""Tangent-kernel similarity between models.

The score is the squared cosine between two networks' tangent kernels on
shared inputs, from n*o square kernels assembled layer by layer (no p x
n*o Jacobian). A study helper trains small groups of classifiers on
related and unrelated synthetic tasks and reports the pairwise
similarities over a shared evaluation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapt import refit_last_layer
from .errors import ConsistencyError, ContractViolationError, ResourceLimitError
from .gp import _task_kernels
from .net import (
    DENSE_JACOBIAN_CAP,
    JacobianOperator,
    MlpArchitecture,
    OptimizerConfig,
    TaskDataset,
    init_network,
    train,
)
from .seeding import substream
from .serialize import canonical_json, fmt_float, render_csv


def similarity_matrix(networks, x) -> np.ndarray:
    """Pairwise tangent-kernel similarities of ``networks`` on the inputs ``x``.

    Entry (a, b) is ||K_ba||_F^2 / (||K_aa||_F ||K_bb||_F) with K_ba = J_b' J_a
    from ``gp._task_kernels``; the diagonal is 1. No norm is zero: the
    output bias puts |h|^2 + 1 >= 1 on K_aa's diagonal. Networks of
    different ``layer_dims`` raise ``ConsistencyError``, kernels over
    ``DENSE_JACOBIAN_CAP`` entries ``ResourceLimitError``.
    """
    if len({net.architecture.layer_dims for net in networks}) > 1:
        raise ConsistencyError("networks of different layer shapes share no parameter space")
    jacs = [JacobianOperator(net, x) for net in networks]
    entries = jacs[0].out_len ** 2
    if entries > DENSE_JACOBIAN_CAP:
        raise ResourceLimitError(f"similarity kernels need {entries} entries (cap {DENSE_JACOBIAN_CAP})")
    norms = [np.linalg.norm(_task_kernels(jac)[0][0]) for jac in jacs]
    matrix = np.eye(len(jacs))
    for a, b in zip(*np.triu_indices(len(jacs), 1)):
        cross = np.linalg.norm(_task_kernels(jacs[a], jacs[b], square=False)[1][0])
        matrix[a, b] = matrix[b, a] = cross * cross / (norms[a] * norms[b])
    return matrix


@dataclass(frozen=True)
class StudyConfig:
    """Three-group transfer study: two splits of one task, one shifted task."""

    models_per_group: int = 5
    # ReLU features gate per-region, which is what makes tangent kernels
    # of same-task models align; tanh models leave a much weaker signal.
    architecture: MlpArchitecture = MlpArchitecture(2, (16,), 2, activation="relu")
    train_points: int = 100
    eval_points: int = 64
    epochs: int = 150
    learning_rate: float = 5e-3
    batch_size: int = 32
    realign_steps: int = 200
    realign_learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.models_per_group < 1:
            raise ContractViolationError("need at least one model per group")
        if self.architecture.output_dim != 2 or self.architecture.heteroscedastic:
            raise ContractViolationError("the study trains plain 2-class classifiers")
        if self.train_points < 2 or self.eval_points < 1:
            raise ContractViolationError("study needs at least 2 train and 1 eval points")


GROUP_NAMES = ("base-a", "base-b", "shifted")
# base-a and base-b are disjoint splits of the same distribution.
DISTRIBUTION_IDS = (0, 0, 1)


def _sample_base(rng: np.random.Generator, n: int):
    half = n // 2
    lo = rng.normal((-1.5, -1.5), 0.6, size=(half, 2))
    hi = rng.normal((1.5, 1.5), 0.6, size=(n - half, 2))
    x = np.vstack([lo, hi])
    labels = np.array([0] * half + [1] * (n - half))
    return x, labels


def _sample_shifted(rng: np.random.Generator, n: int):
    half = n // 2
    lo = rng.normal((0.0, -2.0), 0.9, size=(half, 2))
    hi = rng.normal((0.0, 2.0), 0.9, size=(n - half, 2))
    x = np.vstack([lo, hi])
    labels = np.array([0] * half + [1] * (n - half))
    return x, labels


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass(frozen=True)
class SimilarityReport:
    matrix: np.ndarray
    model_ids: tuple[str, ...]
    distribution_ids: tuple[int, ...]
    n_eval: int
    seed: int

    def _bucket(self, same_distribution: bool):
        values = []
        m = len(self.model_ids)
        for i in range(m):
            for j in range(i + 1, m):
                same = self.distribution_ids[i] == self.distribution_ids[j]
                if same == same_distribution:
                    values.append(float(self.matrix[i, j]))
        return values

    @property
    def within_same_distribution_mean(self) -> float | None:
        values = self._bucket(True)
        return float(np.mean(values)) if values else None

    @property
    def cross_distribution_mean(self) -> float | None:
        values = self._bucket(False)
        return float(np.mean(values)) if values else None

    def to_json(self) -> str:
        summary = {
            "within_same_distribution_mean": self.within_same_distribution_mean,
            "within_pairs": len(self._bucket(True)),
            "cross_distribution_mean": self.cross_distribution_mean,
            "cross_pairs": len(self._bucket(False)),
        }
        return canonical_json(
            {
                "model_ids": list(self.model_ids),
                "distribution_ids": list(self.distribution_ids),
                "n_eval": self.n_eval,
                "seed": self.seed,
                "matrix": [[fmt_float(v) for v in row] for row in self.matrix],
                "summary": summary,
            }
        )

    def to_csv(self) -> str:
        rows = []
        m = len(self.model_ids)
        for i in range(m):
            for j in range(i, m):
                rows.append(
                    [self.model_ids[i], self.model_ids[j], fmt_float(self.matrix[i, j])]
                )
        return render_csv(["model_a", "model_b", "similarity"], rows)


def task_similarity_study(cfg: StudyConfig) -> SimilarityReport:
    """Train three groups of classifiers and compare their Jacobians.

    Groups base-a and base-b train on disjoint halves of one synthetic
    pool; the shifted group trains on a different input distribution and
    then has its final layer realigned on base data, after which all the
    models are compared on one shared base-distribution batch.
    """
    data_rng = substream(cfg.seed, "study-data")
    pool_x, pool_labels = _sample_base(data_rng, 2 * cfg.train_points)
    order = data_rng.permutation(2 * cfg.train_points)
    split_a, split_b = order[: cfg.train_points], order[cfg.train_points :]
    shifted_x, shifted_labels = _sample_shifted(data_rng, cfg.train_points)
    eval_x, _ = _sample_base(substream(cfg.seed, "study-eval"), cfg.eval_points)
    datasets = [
        TaskDataset(x, _one_hot(labels, 2), noise_variance=1.0)
        for x, labels in (
            (pool_x[split_a], pool_labels[split_a]),
            (pool_x[split_b], pool_labels[split_b]),
            (shifted_x, shifted_labels),
        )
    ]
    model_seeds = substream(cfg.seed, "study-models").integers(
        0, 2**31, size=(len(GROUP_NAMES), cfg.models_per_group)
    )
    # Full-batch Adam on the head alone, against base-a's labels.
    realign = OptimizerConfig(
        optimizer="adam",
        loss="categorical-ce",
        batch_size=cfg.train_points,
        epochs=cfg.realign_steps,
        learning_rate=cfg.realign_learning_rate,
    )
    networks = []
    model_ids = []
    distribution_ids = []
    for g, dataset in enumerate(datasets):
        for i in range(cfg.models_per_group):
            seed = int(model_seeds[g, i])
            net = init_network(cfg.architecture, seed=seed)
            trained = train(
                net,
                dataset,
                OptimizerConfig(
                    optimizer="adam",
                    learning_rate=cfg.learning_rate,
                    epochs=cfg.epochs,
                    batch_size=cfg.batch_size,
                    loss="categorical-ce",
                    seed=seed,
                ),
            ).network
            if g == 2:
                (trained,) = refit_last_layer(trained, [datasets[0]], realign)
            networks.append(trained)
            model_ids.append(f"{GROUP_NAMES[g]}-{i}")
            distribution_ids.append(DISTRIBUTION_IDS[g])
    return SimilarityReport(
        matrix=similarity_matrix(networks, eval_x),
        model_ids=tuple(model_ids),
        distribution_ids=tuple(distribution_ids),
        n_eval=cfg.eval_points,
        seed=cfg.seed,
    )
