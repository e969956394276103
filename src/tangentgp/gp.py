"""GP regression with the tangent kernel of a trained network.

The kernel is k(x_i, x_j) = J(x_i)' J(x_j), with J (p x n*o) the Jacobian
of a trained network at fixed parameters. ``kernel_matrix`` assembles it
layer by layer from each layer's inputs and output sensitivities, without
forming J; variance roots and predictive variances use dense Jacobian
blocks. The posterior has two dual forms: the n*o square kernel system
(function space) and the p square parameter system. Both give a length-p
mean cache m and one root R with
R R' = J (J'J + s I)^-1 J' = I - s (J J' + s I)^-1, so a prediction costs
a forward-mode product J*' m and a variance |j*|^2 - |R' j*|^2.
``fit_posterior`` solves whichever system is smaller, by one rule: the
kernel side when n*o <= p, else the p side. ``fit_function_space`` and
``fit_parameter_space`` are the two systems it picks between.

Exact fits take one eigendecomposition of the smaller Gram side, picked
by the same rule: the n*o square kernel K = J'J or the p square JJ'
(``GramFactor``). That one factorization gives leave-one-out scores for a
whole noise grid, the mean cache and an exact variance root, the same
whichever system asked for it. ``rank=None`` fits exactly whenever the
smaller side is at most ``EXACT_FIT_LIMIT``, and always when handed a
factor, as long as the exact root stays under ``DENSE_JACOBIAN_CAP``
entries. The same ``factor_gram`` serves the exact log marginal and, with
per-datum output weights, the Laplace draws of ``glm``.

Matrix-free fits (an explicit ``rank``, or a side above the limit) solve
by CG and take a rank-limited Lanczos root of their own system, so only
they depend on which system ran. Parameter-space subtlety: a
single-probe Lanczos run on A = J J' + s*I lives inside range(J) and
exhausts after about n*o steps, far below p. On the orthogonal complement
A is exactly s*I, so there I - s A^-1 vanishes and the completion
Q T^-1 Q' + (1/s)(I - Q Q') of the inverse lives inside R as
R R' = Q (I - s T^-1) Q'. At Krylov exhaustion this is exact, which is
what makes the two systems agree.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolationError, FitError, ResourceLimitError
from .linalg import (
    SymmetricLinearOperator,
    cg_solve,
    lanczos_factorize,
    lowrank_inverse_root,
    slq_logdet,
    tridiagonal_eigh,
)
from .net import DENSE_JACOBIAN_CAP, JacobianOperator, MlpNetwork, TaskDataset
from .seeding import substream
from .serialize import atomic_write_bytes

MEAN_KINDS = ("zero", "jacobian_mean", "linearized_nn")
DEFAULT_VARIANCE_RANK = 256
POSTERIOR_FILE_VERSION = 2
# Largest smaller-Gram side min(n*o, p) that a rank=None fit factors
# exactly; beyond it fixed-noise fits run CG and Lanczos. Measured with
# untrained 8-D input tanh nets at noise 1e-2 on a 2-vCPU host, matrix-free
# against exact: kernel side 2833 (p = 2833) 4.9 s against 4.0 s, 3000
# (p = 4801) 7.3 s against 5.6 s, 3753 (p = 3753) 7.8 s against 8.3 s;
# p side 2833 (n = 2834) 6.0 s against 3.4 s.
EXACT_FIT_LIMIT = 3000
# Largest smaller-Gram side min(n*o, p) whose log marginal is factored
# exactly. Kept apart from EXACT_FIT_LIMIT so that larger systems still
# take the SLQ path.
DENSE_LOG_MARGINAL_LIMIT = 256

# Residual threshold (relative to the right-hand side) beyond which a
# non-converged CG solve is a fit failure rather than acceptable slack.
FIT_RESIDUAL_LIMIT = 1e-4


def _kernel_side(rows: int, p: int) -> bool:
    """The side rule: work with the rows-square kernel side iff it is no larger than p."""
    return rows <= p


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


def regression_residual(
    network: MlpNetwork, data: TaskDataset, mean_kind: str = "zero", channels=None
) -> np.ndarray:
    """The vector a fit regresses: y - mu(X), flattened datum-major."""
    return _prepare(network, data, mean_kind, channels)[1]


def _variance_lanczos(op: SymmetricLinearOperator, probe: np.ndarray, rank):
    # The data residual is the natural probe (it is the direction the
    # posterior actually uses); fall back to a fixed random draw when the
    # residual vanishes, since Lanczos needs any nonzero start.
    if float(np.linalg.norm(probe)) == 0.0:
        probe = substream(0, "gp-variance-probe").standard_normal(op.dim)
    rank = DEFAULT_VARIANCE_RANK if rank is None else rank
    return lanczos_factorize(op, probe, min(rank, op.dim))


@dataclass
class NtkPosterior:
    """Fitted tangent-kernel posterior with its mean and variance caches.

    ``mean_cache`` m = J (J'J + s I)^-1 r has length p and
    ``variance_root`` is one p x r root R with
    R R' = J (J'J + s I)^-1 J' = I - s (J J' + s I)^-1. A prediction's mean
    is J*' m + mu(X*) and its variance |j*|^2 - |R' j*|^2, clamped at zero
    against roundoff. Exact fits store R = J V (E + s)^-1/2 from the kernel
    side or W (E / (E + s))^1/2 from the p square side, whichever system
    was solved. Matrix-free fits store Lanczos estimates: J Q T^-1/2 from
    the function-space operator, or Q U ((L - s) / L)^1/2 from the
    parameter-space one with T = U diag(L) U' (see the module docstring).
    """

    mean_kind: str
    channels: tuple[int, ...] | None
    mean_cache: np.ndarray
    variance_root: np.ndarray
    noise_variance: float
    theta_fingerprint: str


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

    Assembled layer by layer from ``JacobianOperator.layer_sensitivities``
    (Novak et al. 2022, arXiv 2206.08720): a layer with inputs H and
    sensitivities D adds (D1 D2') o kron(H1 H2' + 1, 1 1') (the o x o block
    of ones), and the output layer, whose D is rows of the identity, adds
    kron(H1 H2' + 1, I_o). This costs O(n1 n2 (o^2 * sum of hidden widths
    + sum of fan-ins)) and forms no p x n*o Jacobian. ``cap`` bounds the
    kernel's entries. Peak memory is about two kernel-sized arrays (the
    kernel and one layer's term), the n1 x n2 Gram of one layer's inputs
    and one layer's n x o x width sensitivities.
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
    layers = JacobianOperator(network, x1, channels).layer_sensitivities()
    if symmetric:
        # One operator for both sides: numpy evaluates a @ a.T as a
        # symmetric rank-k update, so every term is exactly symmetric.
        layers = ((h, d, h, d) for h, d in layers)
    else:
        other = JacobianOperator(network, x2, channels).layer_sensitivities()
        layers = (a + b for a, b in zip(layers, other))
    k = np.zeros(shape)
    blocks = k.reshape(len(x1), o, len(x2), o)
    term = np.empty(shape)
    term_blocks = term.reshape(blocks.shape)
    gram = np.empty((len(x1), len(x2)))
    for depth, (h1, d1, h2, d2) in enumerate(layers):
        np.matmul(h1, h2.T, out=gram)
        gram += 1.0
        if depth == 0:
            for c in range(o):
                blocks[:, c, :, c] = gram
        else:
            width = d1.shape[2]
            np.matmul(d1.reshape(shape[0], width), d2.reshape(shape[1], width).T, out=term)
            term_blocks *= gram[:, None, :, None]
            k += term
    return k


def _eigh_psd(gram: np.ndarray):
    # Negative eigenvalues of a Gram matrix are roundoff; clamp them.
    evals, evecs = np.linalg.eigh(gram)
    return np.maximum(evals, 0.0), evecs


@dataclass(frozen=True)
class GramFactor:
    """One Jacobian-shaped matrix B (p x m) through its smaller Gram side.

    For a task B is its Jacobian J (m = n*o); with per-datum output
    weights W_i (k x o) it is J blockdiag(W_i') (m = n*k). ``side``
    "function" holds B'B = V diag(E) V' (m square); "parameter" holds
    B B' = W diag(E) W' (p square). ``evals`` E are clamped at 0. The
    network, inputs and channels regenerate J's dense blocks; a factor of
    a bare kernel or of weighted Jacobians has none, so no fit can use it.
    """

    side: str
    evals: np.ndarray
    evecs: np.ndarray
    network: MlpNetwork | None = None
    x: np.ndarray | None = None
    channels: tuple[int, ...] | None = None

    @classmethod
    def of_kernel(cls, kernel: np.ndarray) -> "GramFactor":
        return cls("function", *_eigh_psd(kernel))

    def blocks(self):
        return _jacobian_blocks(self.network, self.x, self.channels)


def _blockwise(blocks: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Multiply the datum-major rows of ``a`` by one k x m block per datum."""
    n, k, m = blocks.shape
    return (blocks @ a.reshape(n, m, -1)).reshape((n * k,) + a.shape[1:])


def factor_gram(network: MlpNetwork, x, channels=None, weights=None) -> GramFactor:
    """Eigendecompose the smaller Gram side of J, or of J blockdiag(W_i').

    ``weights`` (n, k, o) holds one k x o output weight W_i per datum. The
    side is picked on the column count, n*o or n*k, by the rule
    ``fit_posterior`` picks its system with (``_kernel_side``).
    ``kernel_matrix`` caps the n*o square kernel at ``DENSE_JACOBIAN_CAP``
    entries; the p side is checked here.
    """
    x = np.asarray(x, dtype=np.float64)
    channels = tuple(channels) if channels is not None else None
    p = network.architecture.parameter_count
    o = network.architecture.internal_output_dim if channels is None else len(channels)
    source = (network, x, channels) if weights is None else ()
    if _kernel_side(len(x) * (o if weights is None else weights.shape[1]), p):
        gram = kernel_matrix(network, x, channels=channels)
        if weights is not None:
            gram = _blockwise(weights, _blockwise(weights, gram).T)
        return GramFactor("function", *_eigh_psd(gram), *source)
    if p * p > DENSE_JACOBIAN_CAP:
        raise ResourceLimitError(
            f"Gram factorization needs a {p} x {p} matrix (cap {DENSE_JACOBIAN_CAP} entries)"
        )
    gram = np.zeros((p, p))
    for cols, block in _jacobian_blocks(network, x, channels):
        b = block.T
        if weights is not None:
            b = _blockwise(weights[cols.start // o : cols.stop // o], b)
        gram += b.T @ b
    return GramFactor("parameter", *_eigh_psd(gram), *source)


def loo_scores(factor: GramFactor, resid, grid) -> np.ndarray:
    """Leave-one-out mean squared residual at each noise variance of ``grid``.

    With G = K + s I and alpha = G^-1 r, the residual left out at point i
    is alpha_i / (G^-1)_ii, so one factorization scores every candidate.
    Function side: alpha = V (V'r / (E + s)) and diag(G^-1) = (V o V)
    (1 / (E + s)). Parameter side, with P = W'J so that K = P'P:
    G^-1 = (I - P' (E + s)^-1 P) / s, whose 1/s cancels in the ratio.
    """
    resid = np.asarray(resid, dtype=np.float64).ravel()
    inv = 1.0 / (factor.evals[:, None] + np.asarray(grid, dtype=np.float64))
    basis = factor.evecs
    if factor.side == "function":
        alpha = basis @ ((basis.T @ resid)[:, None] * inv)
        loo = alpha / ((basis * basis) @ inv)
    else:
        jac = JacobianOperator(factor.network, factor.x, factor.channels)
        z = (basis.T @ jac.vjp(resid))[:, None] * inv
        loo = np.empty((resid.size, inv.shape[1]))
        for cols, block in factor.blocks():
            proj = basis.T @ block
            loo[cols] = (resid[cols, None] - proj.T @ z) / (1.0 - (proj * proj).T @ inv)
    return np.mean(loo * loo, axis=0)


def _exact_factor(network: MlpNetwork, jac: JacobianOperator, rank, factor):
    """The factorization an exact fit uses, or None for the matrix-free path.

    A given ``factor`` must be of this fit's Jacobian: the same network,
    channels and inputs. An exact root has p * min(n*o, p) entries; like
    every dense block it stays under ``DENSE_JACOBIAN_CAP``, else the
    Lanczos root is kept.
    """
    if factor is not None:
        if factor.network is None:
            raise ContractViolationError(
                "the Gram factor of a bare kernel or of weighted Jacobians gives leave-one-out "
                "scores or Laplace draws only; fit from an unweighted gp.factor_gram instead"
            )
        if factor.network.architecture != network.architecture or not np.array_equal(
            factor.network.params, network.params
        ):
            raise ContractViolationError("the Gram factor was built from another network")
        if factor.channels != (None if jac.channels is None else tuple(jac.channels)):
            raise ContractViolationError("the Gram factor was built for other channels")
        if not np.array_equal(factor.x, jac.inputs):
            raise ContractViolationError("the Gram factor was built from other inputs")
    side = min(jac.out_len, jac.param_count)
    if rank is not None or jac.param_count * side > DENSE_JACOBIAN_CAP:
        return None
    if factor is not None:
        return factor
    if side <= EXACT_FIT_LIMIT:
        return factor_gram(network, jac.inputs, jac.channels)
    return None


def _exact_mean_cache(factor: GramFactor, jac: JacobianOperator, resid, sigma2: float):
    basis = factor.evecs
    if factor.side == "function":
        return jac.vjp(basis @ ((basis.T @ resid) / (factor.evals + sigma2)))
    return basis @ ((basis.T @ jac.vjp(resid)) / (factor.evals + sigma2))


def _jacobian_times(blocks, rows: np.ndarray) -> np.ndarray:
    """J @ rows for an n*o-row matrix, summed over dense Jacobian ``blocks``."""
    return sum(block @ rows[cols] for cols, block in blocks)


def _exact_root(factor: GramFactor, sigma2: float) -> np.ndarray:
    """R with R R' = J (K + s I)^-1 J', which is W diag(E / (E + s)) W'."""
    evals = factor.evals
    if factor.side == "function":
        return _jacobian_times(factor.blocks(), factor.evecs / np.sqrt(evals + sigma2))
    return factor.evecs * np.sqrt(evals / (evals + sigma2))


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


def _fit(network, data, mean_kind, rank, channels, factor, kernel_side: bool) -> NtkPosterior:
    """The body both fits share: exact from a ``GramFactor``, else CG and Lanczos on one side."""
    jac, resid = _prepare(network, data, mean_kind, channels)
    sigma2 = data.noise_variance
    factor = _exact_factor(network, jac, rank, factor)
    if factor is not None:
        mean_cache = _exact_mean_cache(factor, jac, resid, sigma2)
        variance_root = _exact_root(factor, sigma2)
    elif kernel_side:
        op = SymmetricLinearOperator(
            dim=jac.out_len, base=lambda v: jac.jvp(jac.vjp(v)), shift=sigma2
        )
        mean_cache = jac.vjp(_solve_or_fail(op, resid, "function-space"))
        inv_root = lowrank_inverse_root(_variance_lanczos(op, resid, rank))
        variance_root = _jacobian_times(_jacobian_blocks(network, data.x, channels), inv_root)
    else:
        op = SymmetricLinearOperator(
            dim=jac.param_count, base=lambda v: jac.vjp(jac.jvp(v)), shift=sigma2
        )
        rhs = jac.vjp(resid)
        mean_cache = _solve_or_fail(op, rhs, "parameter-space")
        # T = Q'J J'Q + s I = U diag(L) U', so R = Q U ((L - s) / L)^1/2 has
        # R R' = Q (I - s T^-1) Q'; an L below s is roundoff.
        factors = _variance_lanczos(op, rhs, rank)
        evals, evecs = tridiagonal_eigh(factors)
        variance_root = factors.q @ (evecs * np.sqrt(np.maximum(evals - sigma2, 0.0) / evals))
    return NtkPosterior(
        mean_kind=mean_kind,
        channels=tuple(channels) if channels is not None else None,
        mean_cache=mean_cache,
        variance_root=variance_root,
        noise_variance=sigma2,
        theta_fingerprint=network.fingerprint(),
    )


def fit_function_space(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    rank: int | None = None,
    channels=None,
    factor: GramFactor | None = None,
) -> NtkPosterior:
    """Fit in function space: solve (J'J + s I) c = resid, cache m = J c.

    Exact from one ``GramFactor`` (``factor``, or a fresh one when ``rank``
    is None and the smaller Gram side is at most ``EXACT_FIT_LIMIT``);
    otherwise CG plus a Lanczos variance root of ``rank`` (default
    ``DEFAULT_VARIANCE_RANK``) steps.
    """
    return _fit(network, data, mean_kind, rank, channels, factor, kernel_side=True)


def fit_parameter_space(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    rank: int | None = None,
    channels=None,
    factor: GramFactor | None = None,
) -> NtkPosterior:
    """Fit in parameter space: solve (J J' + s I_p) m = J resid directly.

    Exact or matrix-free under the same rule as ``fit_function_space``; an
    exact fit gives the same posterior as that one.
    """
    return _fit(network, data, mean_kind, rank, channels, factor, kernel_side=False)


def fit_posterior(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    rank: int | None = None,
    channels=None,
    factor: GramFactor | None = None,
) -> NtkPosterior:
    """Solve the smaller system: ``fit_function_space`` if n*o <= p, else ``fit_parameter_space``."""
    arch = network.architecture
    o = arch.internal_output_dim if channels is None else len(channels)
    if _kernel_side(len(data.x) * o, arch.parameter_count):
        return fit_function_space(network, data, mean_kind, rank, channels, factor)
    return fit_parameter_space(network, data, mean_kind, rank, channels, factor)


def _sq_norms(m: np.ndarray) -> np.ndarray:
    return np.einsum("rj,rj->j", m, m)


def predict(
    posterior: NtkPosterior,
    network: MlpNetwork,
    x,
    cap: int = DENSE_JACOBIAN_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean J*' m + mu and per-channel variance |j*|^2 - |R' j*|^2 at new inputs."""
    if network.fingerprint() != posterior.theta_fingerprint:
        raise ContractViolationError(
            "posterior is stale: the network parameters differ from the ones it was fitted at"
        )
    jac = JacobianOperator(network, x, posterior.channels)
    n_test = jac.n_data
    mu = _mean_surface(jac, network.params, posterior.mean_kind)
    mean = jac.jvp(posterior.mean_cache).reshape(n_test, jac.out_dim) + mu

    var = np.empty(jac.out_len)
    for cols, jt in _jacobian_blocks(network, jac.inputs, jac.channels, cap):
        var[cols] = _sq_norms(jt) - _sq_norms(posterior.variance_root.T @ jt)
    return mean, np.maximum(var, 0.0).reshape(n_test, jac.out_dim)


def log_marginal_likelihood(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    channels=None,
    rank: int = 64,
    n_probes: int = 16,
    seed: int = 0,
) -> float:
    """Gaussian log marginal likelihood of the tangent-kernel model.

    Exact from ``factor_gram`` whenever min(n*o, p) is at most
    ``DENSE_LOG_MARGINAL_LIMIT``: log det(K + s I) is the sum of
    log(E + s), plus (n*o - p) log s on the p side, and r'(K + s I)^-1 r
    is |V'r|^2 weighted by 1 / (E + s) on the kernel side, and
    (|r|^2 - |W'J r|^2 weighted by 1 / (E + s)) / s on the p side. Above
    the limit the quadratic term is solved by CG and the log determinant
    estimated by stochastic Lanczos quadrature (seeded, so the estimate
    is deterministic).
    """
    jac, resid = _prepare(network, data, mean_kind, channels)
    sigma2 = data.noise_variance
    dim = jac.out_len
    if min(dim, jac.param_count) <= DENSE_LOG_MARGINAL_LIMIT:
        factor = factor_gram(network, jac.inputs, channels)
        shifted = factor.evals + sigma2
        kernel_side = factor.side == "function"
        proj = factor.evecs.T @ (resid if kernel_side else jac.vjp(resid))
        quad = float(proj @ (proj / shifted))
        logdet = float(np.sum(np.log(shifted)))
        if not kernel_side:
            quad = (float(resid @ resid) - quad) / sigma2
            logdet += (dim - jac.param_count) * math.log(sigma2)
    else:
        op = SymmetricLinearOperator(dim=dim, base=lambda v: jac.jvp(jac.vjp(v)), shift=sigma2)
        quad = float(resid @ _solve_or_fail(op, resid, "marginal-likelihood"))
        logdet = slq_logdet(op, rank=min(rank, dim), n_probes=n_probes, rng=substream(seed, "slq"))
    return -0.5 * (quad + logdet + dim * math.log(2.0 * math.pi))


# Files that also store "space" (written before the side was picked by
# rule) hold the same arrays and still load.
_POSTERIOR_META_KEYS = ("mean_kind", "channels", "noise_variance", "theta_fingerprint")


def save_posterior(posterior: NtkPosterior, path) -> None:
    """Write a posterior cache; arrays in f64, metadata as embedded JSON."""
    meta = json.dumps(
        {
            "version": POSTERIOR_FILE_VERSION,
            "mean_kind": posterior.mean_kind,
            "channels": list(posterior.channels) if posterior.channels is not None else None,
            "noise_variance": posterior.noise_variance,
            "theta_fingerprint": posterior.theta_fingerprint,
        },
        sort_keys=True,
    )
    buffer = io.BytesIO()
    np.savez(buffer, meta=np.array(meta), mean_cache=posterior.mean_cache,
             variance_root=posterior.variance_root)
    atomic_write_bytes(path, buffer.getvalue())


def load_posterior(path) -> NtkPosterior:
    """Read a posterior cache; a file that is not one raises ConfigError naming what is wrong."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path}: not a posterior cache: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path}: not a posterior cache: one array, not an archive")
    with archive:
        try:
            meta = json.loads(str(archive["meta"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: not a posterior cache: {exc}") from exc
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != POSTERIOR_FILE_VERSION:
            raise ConfigError(f"{path}: unsupported posterior file version {version}")
        missing = [name for name in ("mean_cache", "variance_root") if name not in archive.files]
        missing += [key for key in _POSTERIOR_META_KEYS if key not in meta]
        if missing:
            raise ConfigError(f"{path}: posterior cache has no {missing[0]!r}")
        channels = meta["channels"]
        return NtkPosterior(
            mean_kind=meta["mean_kind"],
            channels=tuple(channels) if channels is not None else None,
            mean_cache=archive["mean_cache"],
            variance_root=archive["variance_root"],
            noise_variance=float(meta["noise_variance"]),
            theta_fingerprint=meta["theta_fingerprint"],
        )
