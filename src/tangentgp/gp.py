"""GP regression with the tangent kernel of a trained network.

The kernel is k(x_i, x_j) = J(x_i)' J(x_j), with J (p x n*o) the Jacobian
of a trained network at fixed parameters. ``kernel_matrix`` assembles it
layer by layer from each layer's inputs and output sensitivities, without
forming J; ``analysis.similarity_matrix`` uses the same assembly across
two networks. Only the p side forms J, in ``JacobianOperator.dense``
blocks (``_jacobian_blocks``) for the p square Gram, its leave-one-out
scores and feature-form variances. ``kernel_matrix`` and ``factor_gram``
also take a ``JacobianOperator`` built at the inputs, and a ``GramFactor``
keeps its operator, so one forward trace serves a whole fit. The
kernel-side formulas (kernels, leave-one-out scores, dual weights, roots
and kernel-form variances) broadcast over a leading task axis, which
``adapt.run_adaptation`` uses to fit a stack of same-size tasks at once.
An operator with a per-datum output map M_i (``JacobianOperator.mapped``)
is B = J blockdiag(M_i'), and its kernel B'B comes from the same assembly.

The architecture fixes the regression view, the outputs that
``output_dim``-wide targets regress on (``MlpArchitecture.regression_channels``):
every fit, prediction, kernel and log marginal here builds its operators
in it, and an operator or factor handed in must be of it.

The posterior has two dual forms: the n*o square kernel system (function
space) and the p square parameter system. Both give a length-p mean cache
m = J (K + s I)^-1 r, so a prediction's mean is the forward-mode product
J*' m. Its variance is one formula, k(x*, x*) - |C' phi(x*)|^2, with the
root C stored in one of two forms:

- kernel form, from fits on the kernel side: phi(x*) = K(X, x*) from
  ``kernel_matrix`` over the stored training inputs X, C C' = (K + s I)^-1
  is n*o square, and k(x*, x*) comes from the query's layer
  sensitivities. No p x n*o block is formed.
- feature form, from fits on the p side: phi(x*) = j*, the dense query
  Jacobian, and C C' = J (K + s I)^-1 J' = I - s (J J' + s I)^-1 is p x r.

``fit_posterior`` solves whichever system is smaller, by one rule: the
kernel side when n*o <= p, else the p side. ``fit_function_space`` and
``fit_parameter_space`` are the two systems it picks between.

Exact fits take one eigendecomposition of the smaller Gram side, picked
by the same rule: the n*o square kernel K = J'J or the p square JJ'
(``GramFactor``). That one factorization gives leave-one-out scores for a
whole noise grid, the mean cache and an exact variance root in the form of
its side, the same whichever system asked for it. A fit is exact
whenever the smaller side is at most ``EXACT_FIT_LIMIT``, and always when
handed a factor, as long as the exact root stays under
``DENSE_JACOBIAN_CAP`` entries; input size alone picks the path. The same
``factor_gram`` serves the exact log marginal. ``glm``'s Laplace fit and
draws pick their Gram's side by ``gram_side``; on the kernel side they map
one ``kernel_matrix`` of J by each Fisher root's output maps, on the p side
they take ``smaller_gram`` of the Fisher-mapped operator. They factor that
Gram by ``gram_cholesky`` and solve with the factor by ``cholesky_solve``.

Matrix-free fits (a side above the limit, or a root over the cap) solve
by CG and take a Lanczos root of at most ``DEFAULT_VARIANCE_RANK`` steps
on their own system: Q T^-1/2 in kernel form from the function-space
operator, a feature-form root from the parameter-space one.
Parameter-space subtlety: a single-probe Lanczos run on A = J J' + s*I
lives inside range(J) and exhausts after about n*o steps, far below p. On the
orthogonal complement A is exactly s*I, so there I - s A^-1 vanishes and
the completion Q T^-1 Q' + (1/s)(I - Q Q') of the inverse lives inside C
as C C' = Q (I - s T^-1) Q'. At Krylov exhaustion this is exact, which
is what makes the two systems agree.
"""

from __future__ import annotations

import functools
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConsistencyError,
    ContractViolationError,
    FitError,
    NumericBreakdownError,
    ResourceLimitError,
)
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
from .serialize import atomic_file, file_field

MEAN_KINDS = ("zero", "jacobian_mean", "linearized_nn")
DEFAULT_VARIANCE_RANK = 256
POSTERIOR_FILE_VERSION = 3
# Largest smaller-Gram side min(n*o, p) that a fit factors exactly;
# beyond it fixed-noise fits run CG and Lanczos. Measured with
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
# Column block of ``cholesky_solve``'s substitutions, and the row height
# of ``gram_cholesky``'s panels. At m = 240 (one BLAS
# thread, 2-vCPU host) blocks of 24 to 60 solved within 10% of each other
# (0.23 ms against 0.46 ms for an LU solve); 120 took 1.8x as long, in its
# diagonal LUs.
CHOLESKY_BLOCK = 48


def _kernel_side(rows: int, p: int) -> bool:
    """The side rule: work with the rows-square kernel side iff it is no larger than p."""
    return rows <= p


def _exact_side(rows: int, p: int) -> str | None:
    """The Gram side that a fit of n*o = ``rows`` against ``p`` factors exactly.

    "function" or "parameter" by ``_kernel_side`` when the smaller side is
    at most ``EXACT_FIT_LIMIT`` (read at call time), else None: the fit
    runs matrix-free unless it is handed a factor.
    """
    if min(rows, p) > EXACT_FIT_LIMIT:
        return None
    return "function" if _kernel_side(rows, p) else "parameter"


def _mean_surface(jac, theta: np.ndarray, kind: str) -> np.ndarray:
    """Prior mean values mu(X), shaped like the (selected) network outputs."""
    if kind == "zero":
        return np.zeros_like(jac.outputs)
    if kind == "jacobian_mean":
        return jac.jvp(theta).reshape(jac.n_data, jac.out_dim)
    if kind == "linearized_nn":
        return jac.outputs + jac.jvp(theta).reshape(jac.n_data, jac.out_dim)
    raise ContractViolationError(f"mean kind must be one of {MEAN_KINDS}, got {kind!r}")


def _check_operator(jac: JacobianOperator, network: MlpNetwork, what: str, inputs=None):
    """Raise unless ``jac`` is of ``network``'s regression view (and at ``inputs``, when given)."""
    if jac.network is not network and (
        jac.network.architecture != network.architecture
        or not np.array_equal(jac.network.params, network.params)
    ):
        raise ContractViolationError(f"{what} was built from another network")
    view = network.architecture.regression_channels
    if jac.channels != (None if view is None else list(view)):
        raise ContractViolationError(f"{what} was built for other channels than the regression view")
    if inputs is not None and not np.array_equal(jac.inputs, inputs):
        raise ContractViolationError(f"{what} was built from other inputs")


def _operator(network: MlpNetwork, x, what="the Jacobian operator", inputs=None) -> JacobianOperator:
    """``x`` itself when it is an operator of ``network``'s regression view, else that view at ``x``."""
    if isinstance(x, JacobianOperator):
        _check_operator(x, network, what, inputs)
        return x
    return JacobianOperator(network, x, network.architecture.regression_channels)


def _check_target_width(y: np.ndarray, width: int, what: str = "targets") -> None:
    """Raise unless the targets ``y`` have the regression view's ``width`` columns."""
    if y.shape[1] != width:
        raise ContractViolationError(
            f"{what} have {y.shape[1]} channels but the regression view has {width}"
        )


def _prepare(network, data: TaskDataset, mean_kind: str, jac=None, what="the Jacobian operator"):
    """The regression view's operator at ``data.x`` (``jac``, once checked) and y - mu(X), flattened."""
    jac = _operator(network, data.x if jac is None else jac, what, data.x)
    _check_target_width(data.y, jac.out_dim)
    mu = _mean_surface(jac, network.params, mean_kind)
    return jac, (data.y - mu).ravel()


def _variance_lanczos(op: SymmetricLinearOperator, probe: np.ndarray):
    # The data residual is the natural probe (it is the direction the
    # posterior actually uses); fall back to a fixed random draw when the
    # residual vanishes, since Lanczos needs any nonzero start.
    if float(np.linalg.norm(probe)) == 0.0:
        probe = substream(0, "gp-variance-probe").standard_normal(op.dim)
    return lanczos_factorize(op, probe, min(DEFAULT_VARIANCE_RANK, op.dim))


@dataclass
class NtkPosterior:
    """Fitted tangent-kernel posterior with its mean and variance caches.

    ``mean_cache`` m = J (J'J + s I)^-1 r has length p; a prediction's mean
    is J*' m + mu(X*). Its variance is k(x*, x*) - |C' phi(x*)|^2, clamped
    at zero against roundoff, with C = ``variance_root`` in one of two
    forms (see the module docstring):

    - kernel form, when ``inputs`` holds the training inputs X: C is
      n*o x r with C C' = (K + s I)^-1 and phi(x*) = K(X, x*). Exact fits
      store V (E + s)^-1/2 from the kernel side's factor, matrix-free ones
      the Lanczos estimate Q T^-1/2 of the function-space operator.
    - feature form, when ``inputs`` is None: C is p x r with
      C C' = J (K + s I)^-1 J' and phi(x*) = j*. Exact fits store
      W (E / (E + s))^1/2 from the p square side's factor, matrix-free ones
      Q U ((L - s) / L)^1/2 from the parameter-space operator with
      T = U diag(L) U'.

    ``inputs`` marks the form, since C is square in both when n*o = p.
    """

    mean_kind: str
    mean_cache: np.ndarray
    variance_root: np.ndarray
    noise_variance: float
    theta_fingerprint: str
    inputs: np.ndarray | None = None


def _jacobian_blocks(jac: JacobianOperator):
    """Dense Jacobian blocks over datum chunks of at most ``DENSE_JACOBIAN_CAP`` entries.

    Yields (columns, block): the p x (rows*o) block of one chunk of
    ``jac``'s inputs, a row slice sharing its trace, and the slice of the
    full Jacobian's columns it holds. A chunk holds at least one datum even
    where that exceeds the cap. An empty batch gives one empty block.
    """
    arch = jac.network.architecture
    rows = max(1, DENSE_JACOBIAN_CAP // (arch.parameter_count * arch.internal_output_dim))
    for start in range(0, max(jac.n_data, 1), rows):
        part = jac.rows(start, start + rows)
        first = start * jac.out_dim
        yield slice(first, first + part.out_len), part.dense()


def kernel_matrix(network: MlpNetwork, x1, x2=None):
    """Tangent-kernel Gram block K[a, b] = <j_a(X1), j_b(X2)>, i.e. J1' J2.

    J is the Jacobian of the network's regression view (the outputs
    ``MlpArchitecture.regression_channels`` names). ``x1`` and ``x2`` are
    inputs or ``JacobianOperator``s of that view built at them.
    Assembled layer by layer from ``JacobianOperator.layer_sensitivities``
    (Novak et al. 2022, arXiv 2206.08720): a layer with inputs H and
    sensitivities D adds (D1 D2') o kron(H1 H2' + 1, 1 1') (the o x o block
    of ones), and the output layer, whose D is rows of the identity unless
    an operator maps its outputs per datum, adds kron(H1 H2' + 1, I_o).
    This costs O(n1 n2 (o^2 * sum of hidden widths + sum of fan-ins)) and
    forms no p x n*o Jacobian. ``DENSE_JACOBIAN_CAP`` bounds the kernel's
    entries. Peak memory is about two kernel-sized arrays (the kernel and
    one layer's term), the n1 x n2 Gram of one layer's inputs and one
    layer's n x o x width sensitivities.
    """
    jac1 = _operator(network, x1)
    jac2 = jac1 if x2 is None else _operator(network, x2)
    shape = (jac1.out_len, jac2.out_len)
    if shape[0] * shape[1] > DENSE_JACOBIAN_CAP:
        raise ResourceLimitError(
            f"kernel matrix needs {shape[0] * shape[1]} entries (cap {DENSE_JACOBIAN_CAP}); "
            "use the matrix-free fits"
        )
    if x2 is None:
        return _task_kernels(jac1)[0][0]
    return _task_kernels(jac1, jac2, square=False)[1][0]


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes, so that one formula serves a matrix and a stack of them."""
    return np.swapaxes(a, -1, -2)


def _task_kernels(jac1: JacobianOperator, jac2: JacobianOperator | None = None, tasks: int = 1, square=True):
    """Per-task tangent kernels from one ``layer_sensitivities`` pass over each operator.

    ``jac1`` holds ``tasks`` equal row blocks X_t, and ``jac2`` as many
    blocks Z_t. Returns (gram, cross, prior): K(X_t, X_t) stacked
    (T, a, a) when ``square``; K(X_t, Z_t) stacked (T, a, b) and the prior
    variances k(z, z) of Z_t, datum-major (T, b), when ``jac2`` is given.
    The others are None. Each layer adds its term as ``kernel_matrix``
    describes; the prior adds |D|^2 (|H|^2 + 1) per datum and channel.
    Output maps are honoured through the sensitivities; the output layer
    takes the identity shortcut unless one side maps per datum.
    """
    o1 = jac1.out_dim
    n1 = jac1.n_data // tasks
    gram = np.zeros((tasks, n1, o1, n1, o1)) if square else None
    cross = prior = None
    if jac2 is None:
        layers = ((layer, None) for layer in jac1.layer_sensitivities())
    else:
        n2, o2 = jac2.n_data // tasks, jac2.out_dim
        cross = np.zeros((tasks, n1, o1, n2, o2))
        prior = np.zeros((tasks * n2, o2))
        layers = zip(jac1.layer_sensitivities(), jac2.layer_sensitivities())
    for depth, ((h1, d1), second) in enumerate(layers):
        h1 = h1.reshape(tasks, n1, h1.shape[1])
        if square:
            # The same arrays on both sides: numpy evaluates a @ a' as a
            # symmetric rank-k update, so every term is exactly symmetric.
            _add_layer_term(gram, h1, d1, h1, d1, depth == 0 and not jac1.maps_per_datum)
        if second is not None:
            h2, d2 = second
            prior += np.einsum("nkj,nkj->nk", d2, d2) * (np.einsum("nj,nj->n", h2, h2) + 1.0)[:, None]
            identity = depth == 0 and not (jac1.maps_per_datum or jac2.maps_per_datum)
            _add_layer_term(cross, h1, d1, h2.reshape(tasks, n2, h2.shape[1]), d2, identity)
    return (
        None if gram is None else gram.reshape(tasks, n1 * o1, n1 * o1),
        None if cross is None else cross.reshape(tasks, n1 * o1, n2 * o2),
        None if prior is None else prior.reshape(tasks, n2 * o2),
    )


def _add_layer_term(k: np.ndarray, h1, d1, h2, d2, identity: bool) -> None:
    """Add one layer's term to the stacked kernels ``k`` (T, n1, o1, n2, o2), in place.

    ``h1`` (T, n1, fan_in) and ``h2`` (T, n2, fan_in) are the layer's
    inputs, ``d1`` and ``d2`` its sensitivities, one row per datum.
    ``identity`` marks an output layer whose D1 D2' is kron(1 1', I_o),
    which adds kron(H1 H2' + 1, I_o) without the product.
    """
    t, n1, o1, n2, o2 = k.shape
    inner = h1 @ _swap(h2)
    inner += 1.0
    if identity:
        for c in range(o1):
            k[:, :, c, :, c] += inner
        return
    width = d1.shape[2]
    term = d1.reshape(t, n1 * o1, width) @ _swap(d2.reshape(t, n2 * o2, width))
    term = term.reshape(k.shape)
    term *= inner[:, :, None, :, None]
    k += term


def _checked(gram: np.ndarray, what: str, compute):
    """``compute(gram)``; a non-finite Gram or a ``LinAlgError`` raises ``NumericBreakdownError``."""
    size = f"{gram.shape[-2]} x {gram.shape[-1]}"
    if not np.isfinite(gram).all():
        raise NumericBreakdownError(f"the {size} Gram matrix has non-finite entries")
    try:
        return compute(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericBreakdownError(f"{what} of the {size} Gram matrix failed: {exc}") from exc


def _eigh_psd(gram: np.ndarray):
    """Eigenpairs of a Gram matrix, or of a stack of them, with negative (roundoff) eigenvalues clamped at 0."""
    evals, evecs = _checked(gram, "eigendecomposition", np.linalg.eigh)
    return np.maximum(evals, 0.0), evecs


def gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^-1 rhs by one LU solve; ``gram`` is left as it is."""
    return _checked(gram, "solve", lambda g: np.linalg.solve(g, rhs))


def panel_shapes(m: int) -> list[tuple[int, int]]:
    """(rows, columns) of each of ``gram_cholesky``'s panels of an m square factor, top to bottom."""
    return [(min(m, i + CHOLESKY_BLOCK) - i, min(m, i + CHOLESKY_BLOCK)) for i in range(0, m, CHOLESKY_BLOCK)]


def gram_cholesky(gram: np.ndarray) -> tuple[np.ndarray, ...]:
    """The lower Cholesky factor L of a positive definite Gram, gram = L L', as its lower block-row panels.

    Panel k holds rows i = k ``CHOLESKY_BLOCK`` up to i + ``CHOLESKY_BLOCK``
    of L and its columns up to the end of its diagonal block,
    min(m, i + ``CHOLESKY_BLOCK``): all of those rows but the exact zeros
    right of the diagonal block. At m = 240 that is 34,560 of the
    57,600 entries. The panels are views of one m square factor.
    """
    factor = _checked(gram, "Cholesky factorization", np.linalg.cholesky)
    return tuple(factor[i : i + CHOLESKY_BLOCK, : i + CHOLESKY_BLOCK] for i in range(0, len(factor), CHOLESKY_BLOCK))


# The strict upper triangle of a diagonal block, as a mask: a boolean
# index reads it in a third of the time ``np.triu`` takes to copy the block.
_ABOVE_DIAGONAL = ~np.tri(CHOLESKY_BLOCK, dtype=bool)


def check_cholesky_panels(panels) -> None:
    """Refuse panels read from outside that ``cholesky_solve`` cannot take as a lower Cholesky factor.

    ``ContractViolationError`` unless every entry is finite and each
    diagonal block is lower triangular with a positive diagonal. A panel
    holds no entry right of its diagonal block, so only the blocks'
    strict upper triangles are scanned.
    """
    for panel in panels:
        block = panel[:, panel.shape[1] - len(panel) :]
        if not np.isfinite(panel).all():
            raise ContractViolationError("non-finite factor entries")
        if block[_ABOVE_DIAGONAL[: len(block), : len(block)]].any():
            raise ContractViolationError("the factor has a nonzero entry above a diagonal block's diagonal")
        if not (block.diagonal() > 0).all():
            raise ContractViolationError("the factor has a diagonal entry that is not positive")


def cholesky_solve(panels, rhs: np.ndarray) -> np.ndarray:
    """(L L')^-1 rhs for a lower Cholesky factor L held as ``gram_cholesky``'s panels, by forward then back substitution.

    numpy has no triangular solve, so each substitution runs over column
    blocks of ``CHOLESKY_BLOCK``: a diagonal block is solved by
    ``np.linalg.solve``, and the blocks already solved enter by matmuls.
    Both are backward stable, as an explicit inverse is not. Each pass
    reads one row panel at a time: the forward pass subtracts the
    panel's product with the blocks already solved before it solves the
    panel's block; the back pass solves the block first, then subtracts
    the transposed panel's product with it from every earlier block, so
    no column panel is gathered. Each substitution costs O(m^2); neither
    the panels nor ``rhs`` is modified.
    """
    x = np.array(rhs, dtype=np.float64)
    starts = range(0, len(x), CHOLESKY_BLOCK)
    for i, panel in zip(starts, panels):  # L y = rhs
        j = i + CHOLESKY_BLOCK
        x[i:j] = np.linalg.solve(panel[:, i:], x[i:j] - panel[:, :i] @ x[:i])
    for i, panel in zip(reversed(starts), reversed(panels)):  # L' x = y
        j = i + CHOLESKY_BLOCK
        x[i:j] = np.linalg.solve(panel[:, i:].T, x[i:j])
        x[:i] -= panel[:, :i].T @ x[i:j]
    return x


@dataclass(frozen=True)
class GramFactor:
    """A task's Jacobian J (p x n*o) through its smaller Gram side.

    ``side`` "function" holds K = J'J = V diag(E) V', "parameter" J J' = W diag(E) W';
    ``evals`` E are clamped at 0. ``jac`` is J's operator, which the fits and the
    parameter-side leave-one-out scores reuse. A function-side factor of T
    stacked kernels holds (T, n*o) ``evals`` and one ``jac`` over all T contexts.
    """

    side: str
    evals: np.ndarray
    evecs: np.ndarray
    jac: JacobianOperator


def check_square(size: int, what: str) -> None:
    """Raise ``ResourceLimitError`` when ``what``'s ``size`` square is over ``DENSE_JACOBIAN_CAP`` entries."""
    if size * size > DENSE_JACOBIAN_CAP:
        raise ResourceLimitError(f"{what} needs a {size} x {size} matrix (cap {DENSE_JACOBIAN_CAP} entries)")


def gram_side(columns: int, p: int) -> bool:
    """Whether the Gram of a p x ``columns`` B is taken on its kernel side, once that side's square is checked.

    ``_kernel_side``, the rule ``fit_posterior`` picks its system with,
    picks the columns square B'B or the p square B B'; the picked square
    is checked against ``DENSE_JACOBIAN_CAP`` entries.
    """
    kernel_side = _kernel_side(columns, p)
    check_square(columns if kernel_side else p, "Gram factorization")
    return kernel_side


def smaller_gram(jac: JacobianOperator) -> tuple[str, np.ndarray]:
    """The smaller Gram side of the operator's B (p x n*o), as (side, Gram).

    B is J of the regression view, or J blockdiag(M_i') for an operator
    with an output map M. ``gram_side`` picks the side on B's column
    count, before anything is built: "function" gives the n*o square B'B,
    "parameter" the p square B B'.
    """
    p = jac.param_count
    if gram_side(jac.out_len, p):
        return "function", kernel_matrix(jac.network, jac)
    gram = np.zeros((p, p))
    for _, block in _jacobian_blocks(jac):
        gram += block @ block.T
    return "parameter", gram


def factor_gram(network: MlpNetwork, x) -> GramFactor:
    """Eigendecompose ``smaller_gram`` of J; ``x`` is the inputs or a regression-view operator at them."""
    jac = _operator(network, x)
    side, gram = smaller_gram(jac)
    return GramFactor(side, *_eigh_psd(gram), jac)


def loo_scores(factor: GramFactor, resid, grid) -> np.ndarray:
    """Leave-one-out mean squared residual at each noise variance of ``grid``.

    With G = K + s I and alpha = G^-1 r, the residual left out at point i
    is alpha_i / (G^-1)_ii, so one factorization scores every candidate.
    Function side: alpha = V (V'r / (E + s)) and diag(G^-1) = (V o V)
    (1 / (E + s)); a function-side factor of T stacked kernels, with
    ``resid`` (T, n*o), gives (T, len(grid)) scores. Parameter side, with
    P = W'J so that K = P'P: G^-1 = (I - P' (E + s)^-1 P) / s, whose 1/s
    cancels in the ratio.
    """
    resid = np.asarray(resid, dtype=np.float64)
    inv = 1.0 / (factor.evals[..., None] + np.asarray(grid, dtype=np.float64))
    basis = factor.evecs
    if factor.side == "function":
        resid = resid.reshape(factor.evals.shape)
        alpha = basis @ ((_swap(basis) @ resid[..., None]) * inv)
        loo = alpha / ((basis * basis) @ inv)
    else:
        resid = resid.ravel()
        z = (basis.T @ factor.jac.vjp(resid))[:, None] * inv
        loo = np.empty((resid.size, inv.shape[1]))
        for cols, block in _jacobian_blocks(factor.jac):
            proj = basis.T @ block
            del block  # freed, and proj squared in place, before the products: a lower memory peak
            numerator = resid[cols, None] - proj.T @ z
            proj *= proj
            loo[cols] = numerator / (1.0 - proj.T @ inv)
    return np.mean(loo * loo, axis=-2)


def _exact_factor(jac: JacobianOperator, factor):
    """The factorization an exact fit uses, or None for the matrix-free path.

    The given ``factor``, else a fresh one when ``_exact_side`` holds. An
    exact root is min(n*o, p) square: n*o in kernel form, p in feature
    form. Like every dense block it stays under ``DENSE_JACOBIAN_CAP``
    entries, else the Lanczos root is kept.
    """
    side = min(jac.out_len, jac.param_count)
    if side * side > DENSE_JACOBIAN_CAP:
        return None
    if factor is not None:
        return factor
    if _exact_side(jac.out_len, jac.param_count) is not None:
        return factor_gram(jac.network, jac)
    return None


def _dual_weights(factor: GramFactor, resid: np.ndarray, sigma2) -> np.ndarray:
    """c = (K + s I)^-1 r = V (V'r / (E + s)) from a function-side factor.

    Broadcasts over a leading task axis: T stacked kernels, ``resid``
    (T, n*o) and ``sigma2`` (T, 1) give (T, n*o).
    """
    basis = factor.evecs
    proj = (_swap(basis) @ resid[..., None])[..., 0] / (factor.evals + sigma2)
    return (basis @ proj[..., None])[..., 0]


def _exact_mean_cache(factor: GramFactor, jac: JacobianOperator, resid, sigma2: float):
    if factor.side == "function":
        return jac.vjp(_dual_weights(factor, resid, sigma2))
    basis = factor.evecs
    return basis @ ((basis.T @ jac.vjp(resid)) / (factor.evals + sigma2))


def _exact_root(factor: GramFactor, sigma2) -> np.ndarray:
    """C in the form of the factor's side: V (E + s)^-1/2, or W (E / (E + s))^1/2.

    The function side broadcasts over a leading task axis as ``_dual_weights`` does.
    """
    evals = factor.evals
    if factor.side == "function":
        return factor.evecs / np.sqrt(evals + sigma2)[..., None, :]
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


def _fit(network, data, mean_kind, factor, kernel_side: bool) -> NtkPosterior:
    """The body both fits share: exact from a ``GramFactor``, else CG and Lanczos on one side.

    A given ``factor`` must be of this fit's Jacobian (the same network,
    regression view and inputs); the fit reuses its operator.
    """
    jac = None if factor is None else factor.jac
    jac, resid = _prepare(network, data, mean_kind, jac, "the Gram factor")
    sigma2 = data.noise_variance
    factor = _exact_factor(jac, factor)
    if factor is not None:
        mean_cache = _exact_mean_cache(factor, jac, resid, sigma2)
        variance_root = _exact_root(factor, sigma2)
        kernel_form = factor.side == "function"
    elif kernel_side:
        op = SymmetricLinearOperator(
            dim=jac.out_len, base=lambda v: jac.jvp(jac.vjp(v)), shift=sigma2
        )
        mean_cache = jac.vjp(_solve_or_fail(op, resid, "function-space"))
        variance_root = lowrank_inverse_root(_variance_lanczos(op, resid))
        kernel_form = True
    else:
        op = SymmetricLinearOperator(
            dim=jac.param_count, base=lambda v: jac.vjp(jac.jvp(v)), shift=sigma2
        )
        rhs = jac.vjp(resid)
        mean_cache = _solve_or_fail(op, rhs, "parameter-space")
        # T = Q'J J'Q + s I = U diag(L) U', so R = Q U ((L - s) / L)^1/2 has
        # R R' = Q (I - s T^-1) Q'; an L below s is roundoff.
        factors = _variance_lanczos(op, rhs)
        evals, evecs = tridiagonal_eigh(factors)
        variance_root = factors.q @ (evecs * np.sqrt(np.maximum(evals - sigma2, 0.0) / evals))
        kernel_form = False
    return NtkPosterior(
        mean_kind=mean_kind,
        mean_cache=mean_cache,
        variance_root=variance_root,
        noise_variance=sigma2,
        theta_fingerprint=network.fingerprint(),
        inputs=jac.inputs.copy() if kernel_form else None,
    )


def fit_function_space(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    factor: GramFactor | None = None,
) -> NtkPosterior:
    """Fit in function space: solve (J'J + s I) c = resid, cache m = J c.

    Exact from one ``GramFactor`` (``factor``, or a fresh one when the
    smaller Gram side is at most ``EXACT_FIT_LIMIT``); otherwise CG plus a
    Lanczos variance root of at most ``DEFAULT_VARIANCE_RANK`` steps.
    """
    return _fit(network, data, mean_kind, factor, kernel_side=True)


def fit_parameter_space(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    factor: GramFactor | None = None,
) -> NtkPosterior:
    """Fit in parameter space: solve (J J' + s I_p) m = J resid directly.

    Exact or matrix-free under the same rule as ``fit_function_space``; an
    exact fit gives the same posterior as that one.
    """
    return _fit(network, data, mean_kind, factor, kernel_side=False)


def fit_posterior(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
    factor: GramFactor | None = None,
) -> NtkPosterior:
    """Solve the smaller system: ``fit_function_space`` if n*o <= p (o = ``output_dim``), else ``fit_parameter_space``."""
    arch = network.architecture
    if _kernel_side(len(data.x) * arch.output_dim, arch.parameter_count):
        return fit_function_space(network, data, mean_kind, factor)
    return fit_parameter_space(network, data, mean_kind, factor)


def _sq_norms(m: np.ndarray) -> np.ndarray:
    """Squared norm of each column, over any leading task axes."""
    return np.einsum("...rj,...rj->...j", m, m)


def _kernel_form_variances(root: np.ndarray, phi: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """k(z, z) - |C' K(X, z)|^2 per column z of ``phi``, before clamping; broadcasts over tasks."""
    return prior - _sq_norms(_swap(root) @ phi)


def _checked_root(posterior: NtkPosterior, jac: JacobianOperator) -> np.ndarray:
    """The posterior's variance root, once its arrays fit the network it predicts with."""
    root, inputs = posterior.variance_root, posterior.inputs
    if inputs is None:
        rows, what = jac.param_count, "parameter"
    else:
        input_dim = jac.network.architecture.input_dim
        if inputs.ndim != 2 or inputs.shape[1] != input_dim:
            raise ContractViolationError(
                f"posterior inputs of shape {inputs.shape} do not match input_dim {input_dim}"
            )
        rows, what = len(inputs) * jac.out_dim, "training output"
    if root.ndim != 2 or root.shape[0] != rows:
        raise ContractViolationError(
            f"posterior variance_root of shape {root.shape} needs one row per {what} ({rows})"
        )
    return root


def predict(posterior: NtkPosterior, network: MlpNetwork, x) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean J*' m + mu and per-channel variance k(x*, x*) - |C' phi(x*)|^2 at new inputs ``x``.

    A network of other parameters than the fit's raises ``ConsistencyError``.

    Kernel form: phi(x*) = K(X, x*) in chunks of query rows whose cross
    kernel stays under ``DENSE_JACOBIAN_CAP`` entries. Feature form:
    phi(x*) = j* in dense query blocks under the cap. A chunk holds at
    least one row.
    """
    if network.fingerprint() != posterior.theta_fingerprint:
        raise ConsistencyError("stale posterior cache: it was fitted at different network parameters")
    jac = _operator(network, x)
    root = _checked_root(posterior, jac)
    n_test, o = jac.n_data, jac.out_dim
    mu = _mean_surface(jac, network.params, posterior.mean_kind)
    mean = jac.jvp(posterior.mean_cache).reshape(n_test, o) + mu

    var = np.empty(jac.out_len)
    if posterior.inputs is None:
        for cols, jt in _jacobian_blocks(jac):
            var[cols] = _sq_norms(jt) - _sq_norms(root.T @ jt)
    else:
        train = _operator(network, posterior.inputs)
        rows = max(1, DENSE_JACOBIAN_CAP // max(1, train.out_len * o))
        for start in range(0, n_test, rows):
            # One sensitivity pass over the chunk gives its cross kernel
            # and its prior variances. One row may exceed the cap, as one
            # dense block may.
            part = jac.rows(start, start + rows)
            _, phi, prior = _task_kernels(train, part, square=False)
            var[start * o : start * o + part.out_len] = _kernel_form_variances(root, phi[0], prior[0])
    return mean, np.maximum(var, 0.0).reshape(n_test, o)


def log_marginal_likelihood(
    network: MlpNetwork,
    data: TaskDataset,
    mean_kind: str = "zero",
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
    jac, resid = _prepare(network, data, mean_kind)
    sigma2 = data.noise_variance
    dim = jac.out_len
    if min(dim, jac.param_count) <= DENSE_LOG_MARGINAL_LIMIT:
        factor = factor_gram(network, jac)
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


def save_posterior(posterior: NtkPosterior, path) -> None:
    """Write a posterior cache; arrays in f64, metadata as embedded JSON."""
    kernel_form = posterior.inputs is not None
    meta = json.dumps(
        {
            "version": POSTERIOR_FILE_VERSION,
            "form": "kernel" if kernel_form else "feature",
            "mean_kind": posterior.mean_kind,
            "noise_variance": posterior.noise_variance,
            "theta_fingerprint": posterior.theta_fingerprint,
        },
        sort_keys=True,
    )
    arrays = {"mean_cache": posterior.mean_cache, "variance_root": posterior.variance_root}
    if kernel_form:
        arrays["inputs"] = posterior.inputs
    with atomic_file(path) as fh:
        np.savez(fh, meta=np.array(meta), **arrays)


def load_posterior(path) -> NtkPosterior:
    """Read a version-3 posterior cache; a file that is not one raises ConfigError naming what is wrong.

    Every key is read through ``serialize.file_field`` (arrays must be finite);
    keys it does not read, such as older files' ``channels`` and ``space``, are ignored.
    """
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
        field = functools.partial(file_field, path, "posterior cache", meta)
        array = functools.partial(file_field, path, "posterior cache", archive)
        form = field("form")
        if form not in ("feature", "kernel"):
            raise ConfigError(f"{path}: unknown posterior form {form!r}")
        mean_kind = field("mean_kind")
        if mean_kind not in MEAN_KINDS:
            raise ConfigError(f"{path}: unknown posterior mean kind {mean_kind!r}")
        return NtkPosterior(
            mean_kind=mean_kind,
            mean_cache=array("mean_cache", "number array"),
            variance_root=array("variance_root", "number array"),
            noise_variance=field("noise_variance", "number", float),
            theta_fingerprint=field("theta_fingerprint", "string"),
            inputs=array("inputs", "number array") if form == "kernel" else None,
        )
