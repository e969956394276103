"""Jacobian diagnostics: subspace similarity between models.

The similarity score is the squared cosine between two Gram matrices,
tr(A'BB'A) / (||AA'||_F ||BB'||_F), computed column-side so nothing of
size p x p is ever formed. A study helper trains small groups of
classifiers on related and unrelated synthetic tasks and reports the
pairwise similarities over a shared evaluation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapt import refit_last_layer
from .errors import ContractViolationError
from .net import (
    JacobianOperator,
    MlpArchitecture,
    OptimizerConfig,
    TaskDataset,
    init_network,
    train,
)
from .seeding import substream
from .serialize import canonical_json, fmt_float, render_csv


def jacobian_similarity(ja: np.ndarray, jb: np.ndarray) -> float:
    """Squared cosine similarity of two Jacobians on the same inputs.

    Rows are parameters, columns are output evaluations, so both counts
    must match: the two models share one parameter count.
    """
    ja = np.asarray(ja, dtype=np.float64)
    jb = np.asarray(jb, dtype=np.float64)
    if ja.ndim != 2 or jb.ndim != 2:
        raise ContractViolationError("similarity arguments must be 2-d matrices")
    if ja.shape[1] != jb.shape[1]:
        raise ContractViolationError(
            f"column counts differ ({ja.shape[1]} vs {jb.shape[1]}); "
            "Jacobians must be evaluated on the same inputs"
        )
    if ja.shape[0] != jb.shape[0]:
        raise ContractViolationError(
            f"row counts differ ({ja.shape[0]} vs {jb.shape[0]}); "
            "Jacobians must have one parameter count"
        )
    norm_a = np.linalg.norm(ja.T @ ja)
    norm_b = np.linalg.norm(jb.T @ jb)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ContractViolationError("similarity undefined for an all-zero Jacobian")
    cross = np.linalg.norm(jb.T @ ja)
    return float(cross * cross / (norm_a * norm_b))


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
        within = self._bucket(True)
        cross = self._bucket(False)
        summary = {
            "within_same_distribution_mean": float(np.mean(within)) if within else None,
            "within_pairs": len(within),
            "cross_distribution_mean": float(np.mean(cross)) if cross else None,
            "cross_pairs": len(cross),
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
    then has its final layer realigned on base data, after which every
    model's Jacobian is taken on one shared base-distribution batch.
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
    jacobians = []
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
            jacobians.append(JacobianOperator(trained, eval_x).dense())
            model_ids.append(f"{GROUP_NAMES[g]}-{i}")
            distribution_ids.append(DISTRIBUTION_IDS[g])
    m = len(jacobians)
    matrix = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            matrix[i, j] = matrix[j, i] = jacobian_similarity(jacobians[i], jacobians[j])
    return SimilarityReport(
        matrix=matrix,
        model_ids=tuple(model_ids),
        distribution_ids=tuple(distribution_ids),
        n_eval=cfg.eval_points,
        seed=cfg.seed,
    )
