"""GP regression with the tangent kernel of a trained network.

The kernel is k(x_i, x_j) = J(x_i)' J(x_j), built from the Jacobian of a
trained network at fixed parameters. Posteriors can be fitted in function
space (an n*o dimensional system) or parameter space (a p dimensional
system); both store a length-p mean cache m, so prediction means cost a
single forward-mode product J*' m, plus low-rank variance caches.

Parameter-space subtlety: a single-probe Lanczos run on J J' + s*I lives
inside range(J) and exhausts after about n*o steps, far below p. On the
orthogonal complement the operator is exactly s*I, so the inverse is
completed analytically there (Q T^-1 Q' + (1/s)(I - Q Q')). At Krylov
exhaustion this completion is exact, which is what makes the two spaces
agree; without it the truncated root would undercount variance for every
p > n*o.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolationError, FitError, ResourceLimitError
from .linalg import (
    SymmetricLinearOperator,
    cg_solve,
    lanczos_factorize,
    lowrank_inverse_root,
    slq_logdet,
)
from .net import DENSE_JACOBIAN_CAP, JacobianOperator, MlpNetwork, TaskDataset
from .seeding import substream
from .serialize import atomic_write_bytes

MEAN_KINDS = ("zero", "jacobian_mean", "linearized_nn")
SPACES = ("function", "parameter")
DEFAULT_VARIANCE_RANK = 256
POSTERIOR_FILE_VERSION = 1

# Residual threshold (relative to the right-hand side) beyond which a
# non-converged CG solve is a fit failure rather than acceptable slack.
FIT_RESIDUAL_LIMIT = 1e-4


def _mean_surface(jac, theta: np.ndarray, kind: str) -> np.ndarray:
    """Prior mean values mu(X), shaped like the (selected) network outputs."""
    if kind == "zero":
        return np.zeros_like(jac.outputs)
    if kind == "jacobian_mean":
        return jac.jvp(theta).reshape(jac.n_data, jac.out_dim)
    if kind == "linearized_nn":
        return jac.outputs + jac.jvp(theta).reshape(jac.n_data, jac.out_dim)
    raise ContractViolationError(f"mean kind must be one of {MEAN_KINDS}, got {kind!r}")


def _prepare(network: MlpNetwork, data: TaskDataset, mean_kind: str, channels):
    jac = JacobianOperator(network, data.x, channels)
    if data.y.shape[1] != jac.out_dim:
        raise ContractViolationError(
            f"targets have {data.y.shape[1]} channels but the regression view has {jac.out_dim}"
        )
    mu = _mean_surface(jac, network.params, mean_kind)
    return jac, (data.y - mu).ravel()


def _variance_probe(resid: np.ndarray, dim: int) -> np.ndarray:
    # The data residual is the natural probe (it is the direction the
    # posterior actually uses); fall back to a fixed random draw when the
    # residual vanishes, since Lanczos needs any nonzero start.
    if float(np.linalg.norm(resid)) > 0.0:
        return resid
    return substream(0, "gp-variance-probe").standard_normal(dim)


@dataclass
class NtkPosterior:
    """Fitted tangent-kernel posterior with low-rank variance caches.

    ``mean_cache`` has length p in both spaces. ``variance_root`` is
    R = J Q T^(-1/2) in function space (R R' approximates
    J (J'J + s I)^-1 J') and B = Q T^(-1/2) in parameter space
    (completed with ``basis`` Q as described in the module docstring).
    ``clamp_count`` accumulates how many predictive variances were
    clamped up to zero; it is a diagnostic, not part of the posterior
    state proper.
    """

    space: str
    mean_kind: str
    channels: tuple[int, ...] | None
    mean_cache: np.ndarray
    variance_root: np.ndarray
    basis: np.ndarray | None
    noise_variance: float
    theta_fingerprint: str
    clamp_count: int = 0


def _jacobian_blocks(network: MlpNetwork, x, channels, cap: int = DENSE_JACOBIAN_CAP):
    """Dense Jacobian blocks over datum chunks of at most ``cap`` entries.

    Yields (columns, block): the p x (rows*o) block of one chunk of ``x``
    and the slice of the full Jacobian's columns it holds. A chunk holds
    at least one datum even where that exceeds ``cap``. An empty batch
    gives one empty block, so inputs and channels are validated either way.
    """
    arch = network.architecture
    rows = max(1, cap // (arch.parameter_count * arch.internal_output_dim))
    for start in range(0, max(len(x), 1), rows):
        jac = JacobianOperator(network, x[start : start + rows], channels)
        first = start * jac.out_dim
        yield slice(first, first + jac.out_len), jac.dense()


def kernel_matrix(network: MlpNetwork, x1, x2=None, channels=None, cap: int = DENSE_JACOBIAN_CAP):
    """Tangent-kernel Gram block K[a, b] = <j_a(X1), j_b(X2)>, i.e. J1' J2.

    ``cap`` bounds the entries of the kernel and of each Jacobian block
    it is assembled from.
    """
    symmetric = x2 is None
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = x1 if symmetric else np.asarray(x2, dtype=np.float64)
    o = network.architecture.internal_output_dim if channels is None else len(channels)
    shape = (len(x1) * o, len(x2) * o)
    if shape[0] * shape[1] > cap:
        raise ResourceLimitError(
            f"kernel matrix needs {shape[0] * shape[1]} entries (cap {cap}); "
            "use the matrix-free fits"
        )
    k = np.empty(shape)
    for cols1, block1 in _jacobian_blocks(network, x1, channels, cap):
        # A symmetric kernel pairs each block with the earlier ones only and
        # mirrors them; numpy evaluates a.T @ a as a symmetric rank-k
        # update, so the diagonal blocks come out exactly symmetric.
        others = x1[: cols1.start // o] if symmetric else x2
        for cols2, block2 in _jacobian_blocks(network, others, channels, cap):
            np.matmul(block1.T, block2, out=k[cols1, cols2])
            if symmetric:
                k[cols2, cols1] = k[cols1, cols2].T
        if symmetric:
            np.matmul(block1.T, block1, out=k[cols1, cols1])
    return k


def _solve_or_fail(op, rhs, what: str):
    result = cg_solve(op, rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    if not result.converged and result.residual_norm > FIT_RESIDUAL_LIMIT * rhs_norm:
        raise FitError(
            f"{what} solve did not converge: residual {result.residual_norm:.3e} "
            f"against right-hand side norm {rhs_norm:.3e}",
            residual_norm=result.residual_norm,
        )
    return result.x


def fit_function_space(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    rank: int | None = None,
    channels=None,
) -> NtkPosterior:
    """Fit in function space: solve (J'J + s I) c = resid, cache m = J c."""
    jac, resid = _prepare(network, data, mean_kind, channels)
    sigma2 = data.noise_variance
    op = SymmetricLinearOperator(
        dim=jac.out_len, base=lambda v: jac.jvp(jac.vjp(v)), shift=sigma2
    )
    coeffs = _solve_or_fail(op, resid, "function-space")
    mean_cache = jac.vjp(coeffs)
    r = min(rank if rank is not None else DEFAULT_VARIANCE_RANK, jac.out_len)
    factors = lanczos_factorize(op, _variance_probe(resid, jac.out_len), r)
    small_root = lowrank_inverse_root(factors)
    variance_root = sum(
        block @ small_root[cols] for cols, block in _jacobian_blocks(network, data.x, channels)
    )
    return NtkPosterior(
        space="function",
        mean_kind=mean_kind,
        channels=tuple(channels) if channels is not None else None,
        mean_cache=mean_cache,
        variance_root=variance_root,
        basis=None,
        noise_variance=sigma2,
        theta_fingerprint=network.fingerprint(),
    )


def fit_parameter_space(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    rank: int | None = None,
    channels=None,
) -> NtkPosterior:
    """Fit in parameter space: solve (J J' + s I_p) m = J resid directly."""
    jac, resid = _prepare(network, data, mean_kind, channels)
    sigma2 = data.noise_variance
    p = jac.param_count
    op = SymmetricLinearOperator(dim=p, base=lambda v: jac.vjp(jac.jvp(v)), shift=sigma2)
    rhs = jac.vjp(resid)
    mean_cache = _solve_or_fail(op, rhs, "parameter-space")
    r = min(rank if rank is not None else DEFAULT_VARIANCE_RANK, p)
    factors = lanczos_factorize(op, _variance_probe(rhs, p), r)
    bmat = lowrank_inverse_root(factors)
    return NtkPosterior(
        space="parameter",
        mean_kind=mean_kind,
        channels=tuple(channels) if channels is not None else None,
        mean_cache=mean_cache,
        variance_root=bmat,
        basis=factors.q,
        noise_variance=sigma2,
        theta_fingerprint=network.fingerprint(),
    )


def fit_posterior(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    rank: int | None = None,
    channels=None,
    space: str = "auto",
) -> NtkPosterior:
    """Fit in the requested space; "auto" picks the smaller linear system."""
    if space == "auto":
        jac_out = data.y.size if channels is None else data.x.shape[0] * len(channels)
        space = "function" if jac_out <= network.architecture.parameter_count else "parameter"
    if space == "function":
        return fit_function_space(network, data, mean_kind, rank, channels)
    if space == "parameter":
        return fit_parameter_space(network, data, mean_kind, rank, channels)
    raise ContractViolationError(f"space must be 'auto' or one of {SPACES}, got {space!r}")


def _sq_norms(m: np.ndarray) -> np.ndarray:
    return np.einsum("rj,rj->j", m, m)


def _variance_terms(jac: JacobianOperator, root: np.ndarray, basis, cap: int):
    """Per-test-column quantities: ||j*||^2, ||root' j*||^2, ||basis' j*||^2."""
    col_sq = np.empty(jac.out_len)
    root_sq = np.empty(jac.out_len)
    basis_sq = np.empty(jac.out_len) if basis is not None else None
    for cols, jt in _jacobian_blocks(jac.network, jac.inputs, jac.channels, cap):
        col_sq[cols] = _sq_norms(jt)
        root_sq[cols] = _sq_norms(root.T @ jt)
        if basis is not None:
            basis_sq[cols] = _sq_norms(basis.T @ jt)
    return col_sq, root_sq, basis_sq


def predict(
    posterior: NtkPosterior,
    network: MlpNetwork,
    x,
    cap: int = DENSE_JACOBIAN_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and per-channel variance at new inputs."""
    if network.fingerprint() != posterior.theta_fingerprint:
        raise ContractViolationError(
            "posterior is stale: the network parameters differ from the ones it was fitted at"
        )
    jac = JacobianOperator(network, x, posterior.channels)
    n_test = jac.n_data
    mu = _mean_surface(jac, network.params, posterior.mean_kind)
    mean = jac.jvp(posterior.mean_cache).reshape(n_test, jac.out_dim) + mu

    col_sq, root_sq, basis_sq = _variance_terms(jac, posterior.variance_root, posterior.basis, cap)
    if posterior.space == "function":
        var = col_sq - root_sq
    else:
        var = posterior.noise_variance * root_sq + (col_sq - basis_sq)
    negative = var < 0.0
    if np.any(negative):
        posterior.clamp_count += int(np.count_nonzero(negative))
        var = np.maximum(var, 0.0)
    return mean, var.reshape(n_test, jac.out_dim)


def dense_log_marginal(kernel: np.ndarray, resid: np.ndarray, sigma2: float) -> float:
    """Closed-form Gaussian log marginal for an explicit kernel matrix."""
    dim = resid.shape[0]
    evals, evecs = np.linalg.eigh(kernel + sigma2 * np.eye(dim))
    if np.any(evals <= 0.0):
        raise FitError(f"covariance has nonpositive eigenvalue {evals.min():.3e}")
    w = evecs.T @ resid
    quad = float(w @ (w / evals))
    logdet = float(np.sum(np.log(evals)))
    return -0.5 * (quad + logdet + dim * math.log(2.0 * math.pi))


def log_marginal_likelihood(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    channels=None,
    method: str = "auto",
    rank: int = 64,
    n_probes: int = 16,
    seed: int = 0,
    dense_threshold: int = 256,
) -> float:
    """Gaussian log marginal likelihood of the tangent-kernel model.

    Below ``dense_threshold`` the kernel is assembled and eigendecomposed
    exactly; above it the quadratic term is solved by CG and the log
    determinant estimated by stochastic Lanczos quadrature (seeded, so
    the estimate is deterministic).
    """
    jac, resid = _prepare(network, data, mean_kind, channels)
    sigma2 = data.noise_variance
    dim = jac.out_len
    if method == "auto":
        method = "dense" if dim <= dense_threshold else "lanczos"
    if method == "dense":
        return dense_log_marginal(kernel_matrix(network, data.x, channels=channels), resid, sigma2)
    if method != "lanczos":
        raise ContractViolationError(
            f"method must be 'auto', 'dense' or 'lanczos', got {method!r}"
        )
    op = SymmetricLinearOperator(dim=dim, base=lambda v: jac.jvp(jac.vjp(v)), shift=sigma2)
    alpha = _solve_or_fail(op, resid, "marginal-likelihood")
    quad = float(resid @ alpha)
    logdet = slq_logdet(op, rank=min(rank, dim), n_probes=n_probes, rng=substream(seed, "slq"))
    return -0.5 * (quad + logdet + dim * math.log(2.0 * math.pi))


def save_posterior(posterior: NtkPosterior, path) -> None:
    """Write a posterior cache; arrays in f64, metadata as embedded JSON."""
    meta = json.dumps(
        {
            "version": POSTERIOR_FILE_VERSION,
            "space": posterior.space,
            "mean_kind": posterior.mean_kind,
            "channels": list(posterior.channels) if posterior.channels is not None else None,
            "noise_variance": posterior.noise_variance,
            "theta_fingerprint": posterior.theta_fingerprint,
        },
        sort_keys=True,
    )
    arrays = {"meta": np.array(meta), "mean_cache": posterior.mean_cache,
              "variance_root": posterior.variance_root}
    if posterior.basis is not None:
        arrays["basis"] = posterior.basis
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    atomic_write_bytes(path, buffer.getvalue())


def load_posterior(path) -> NtkPosterior:
    with np.load(path, allow_pickle=False) as archive:
        try:
            meta = json.loads(str(archive["meta"]))
        except (KeyError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: not a posterior cache: {exc}") from exc
        if meta.get("version") != POSTERIOR_FILE_VERSION:
            raise ConfigError(f"{path}: unsupported posterior file version {meta.get('version')}")
        channels = meta["channels"]
        return NtkPosterior(
            space=meta["space"],
            mean_kind=meta["mean_kind"],
            channels=tuple(channels) if channels is not None else None,
            mean_cache=archive["mean_cache"],
            variance_root=archive["variance_root"],
            basis=archive["basis"] if "basis" in archive.files else None,
            noise_variance=float(meta["noise_variance"]),
            theta_fingerprint=meta["theta_fingerprint"],
        )
