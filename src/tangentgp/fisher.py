"""Fisher-vector products, exact and by finite differences of a KL.

The exact product applies (1/n) J H J' v through one forward-mode and
one reverse-mode pass, with H the per-datum likelihood Hessian block.
The finite-difference variant never needs H: it evaluates the gradient
of KL(p(y|theta) || p(y|theta')) at theta' = theta + eps*v and divides
by eps, which costs one extra forward pass and degrades gracefully as
eps leaves its sweet spot. Err(eps) quantifies that degradation against
the exact product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericBreakdownError
from .net import JacobianOperator, MlpNetwork, _log_softmax
from .seeding import substream
from .serialize import fmt_float, render_csv

EPSILON_RANGE = (1e-8, 1e-1)


@dataclass(frozen=True)
class GaussianLikelihood:
    """Homoscedastic Gaussian observation model with fixed variance."""

    noise_variance: float

    def __post_init__(self):
        if not self.noise_variance > 0:
            raise ContractViolationError(
                f"gaussian noise variance must be positive, got {self.noise_variance}"
            )


@dataclass(frozen=True)
class CategoricalLikelihood:
    """Softmax-categorical observation model over C classes (outputs are logits)."""

    num_classes: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ContractViolationError(f"need at least 2 classes, got {self.num_classes}")


@dataclass(frozen=True)
class FvpConfig:
    epsilon: float = 1e-4

    def __post_init__(self):
        lo, hi = EPSILON_RANGE
        if not (lo <= self.epsilon <= hi):
            raise ContractViolationError(
                f"epsilon must lie in [{lo:g}, {hi:g}], got {self.epsilon:g}"
            )


def _check_outputs(like, outputs: np.ndarray, name: str):
    outputs = np.asarray(outputs, dtype=np.float64)
    if not np.all(np.isfinite(outputs)):
        raise ContractViolationError(f"{name} contains non-finite entries")
    if isinstance(like, CategoricalLikelihood) and outputs.shape[1] != like.num_classes:
        raise ContractViolationError(
            f"{name} has {outputs.shape[1]} columns, likelihood expects {like.num_classes}"
        )
    return outputs


def kl_divergence(like, outputs_p: np.ndarray, outputs_q: np.ndarray, grad: bool = False):
    """KL between the likelihoods induced by two output batches, summed over data.

    With ``grad=True`` also returns the gradient with respect to
    ``outputs_q``, treating the first argument's probabilities as
    constants (the categorical case differentiates only through log q).
    """
    outputs_p = _check_outputs(like, outputs_p, "outputs_p")
    outputs_q = _check_outputs(like, outputs_q, "outputs_q")
    if outputs_p.shape != outputs_q.shape:
        raise ContractViolationError(
            f"output shapes differ: {outputs_p.shape} vs {outputs_q.shape}"
        )
    if isinstance(like, GaussianLikelihood):
        diff = outputs_p - outputs_q
        value = float(np.sum(diff * diff) / (2.0 * like.noise_variance))
        if not grad:
            return value
        return value, -diff / like.noise_variance
    if isinstance(like, CategoricalLikelihood):
        log_p = _log_softmax(outputs_p)
        log_q = _log_softmax(outputs_q)
        p = np.exp(log_p)
        value = float(np.sum(p * (log_p - log_q)))
        if not grad:
            return value
        return value, np.exp(log_q) - p
    raise ContractViolationError(f"unknown likelihood {type(like).__name__}")


def _hessian_block_apply(like, outputs: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Apply the per-datum likelihood Hessian H to an output-shaped tangent."""
    if isinstance(like, GaussianLikelihood):
        return tangent / like.noise_variance
    return _softmax_fisher_apply(np.exp(_log_softmax(outputs)), tangent)


def _softmax_fisher_apply(probs: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Apply the softmax Fisher block diag(p) - p p' of each datum's probabilities."""
    return probs * tangent - probs * np.sum(probs * tangent, axis=1, keepdims=True)


def exact_fvp(network: MlpNetwork, x: np.ndarray, v: np.ndarray, like) -> np.ndarray:
    """(1/n) J H J' v via jvp, a blockwise H multiply, and one vjp."""
    jac = JacobianOperator(network, x)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (jac.param_count,):
        raise ContractViolationError(
            f"expected vector of length {jac.param_count}, got shape {v.shape}"
        )
    n = jac.n_data
    tangent = jac.jvp(v).reshape(n, jac.out_dim)
    ht = _hessian_block_apply(like, jac.outputs, tangent)
    if not np.all(np.isfinite(ht)):
        raise NumericBreakdownError("non-finite intermediate in exact Fisher-vector product")
    return jac.vjp(ht.ravel()) / n


def fd_fvp(
    network: MlpNetwork,
    x: np.ndarray,
    v: np.ndarray,
    like,
    cfg: FvpConfig = FvpConfig(),
) -> np.ndarray:
    """Finite-difference Fisher-vector product.

    Evaluates (1/(n*eps)) times the KL gradient at theta' = theta +
    eps*v: one forward pass at theta, one at theta', one reverse pass.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (network.architecture.parameter_count,):
        raise ContractViolationError(
            f"expected vector of length {network.architecture.parameter_count}, got shape {v.shape}"
        )
    base = JacobianOperator(network, x)
    shifted = JacobianOperator(network.with_params(network.params + cfg.epsilon * v), x)
    _, grad_q = kl_divergence(like, base.outputs, shifted.outputs, grad=True)
    if not np.all(np.isfinite(grad_q)):
        raise NumericBreakdownError("non-finite intermediate in finite-difference product")
    return shifted.vjp(grad_q.ravel()) / (base.n_data * cfg.epsilon)


@dataclass(frozen=True)
class FvpSweep:
    """Err(eps) table: per grid point, mean and max relative error over probes."""

    epsilons: tuple[float, ...]
    mean_rel_err: tuple[float, ...]
    max_rel_err: tuple[float, ...]
    num_probes: int
    seed: int


def fvp_error_sweep(
    network: MlpNetwork,
    x: np.ndarray,
    like,
    eps_grid,
    num_probes: int = 8,
    seed: int = 0,
) -> FvpSweep:
    """Relative FD error against the exact product over random unit probes."""
    eps_grid = tuple(float(e) for e in eps_grid)
    if len(eps_grid) == 0:
        raise ContractViolationError("epsilon grid must be nonempty")
    if num_probes < 1:
        raise ContractViolationError("need at least one probe")
    rng = substream(seed, "fvp-probes")
    p = network.architecture.parameter_count
    probes = rng.standard_normal((num_probes, p))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    exact = [exact_fvp(network, x, probes[k], like) for k in range(num_probes)]
    means = []
    maxes = []
    for eps in eps_grid:
        cfg = FvpConfig(epsilon=eps)
        errs = []
        for k in range(num_probes):
            approx = fd_fvp(network, x, probes[k], like, cfg)
            errs.append(
                float(np.linalg.norm(exact[k] - approx) / np.linalg.norm(exact[k]))
            )
        means.append(float(np.mean(errs)))
        maxes.append(float(np.max(errs)))
    return FvpSweep(
        epsilons=eps_grid,
        mean_rel_err=tuple(means),
        max_rel_err=tuple(maxes),
        num_probes=num_probes,
        seed=seed,
    )


def sweep_csv(sweep: FvpSweep) -> str:
    header = ["epsilon", "mean_rel_err", "max_rel_err", "probes", "seed"]
    rows = [
        [fmt_float(eps), fmt_float(mean), fmt_float(mx), str(sweep.num_probes), str(sweep.seed)]
        for eps, mean, mx in zip(sweep.epsilons, sweep.mean_rel_err, sweep.max_rel_err)
    ]
    return render_csv(header, rows)

