"""Classification through a linearized network, with Bayesian variants.

The model keeps the trained parameters theta frozen and learns separate
coefficients theta' for logits J' theta' (optionally plus the network's
own output, the full Taylor view), all from one pass, ``_logits``, on
per-layer views of theta' that every fit binds once. Inference over
theta' comes in three strengths: a MAP point estimate and a factorized
Gaussian fitted by stochastic variational inference, both by minibatch
Adam, and a Laplace approximation centred at the exact mode, with the
Fisher there plus the prior as its precision.
The Fisher has rank at most n*(c-1) on n inputs with c classes, so it
has a root B = J blockdiag(M_i') with n*(c-1) columns: the Jacobian
operator under the output map M_i, a (c-1) x c root of datum i's
Fisher block. Logits are linear in theta', so the penalized NLL is
convex and its Hessian is exactly the precision A = lam I + B B' at
the current coefficients (the GGN of Immer et al. 2021). The Laplace
fit is Newton's method on it: each step solves with A on the smaller
side of B's Gram, the n*(c-1) square lam I + B'B (by the Woodbury
identity) or the p square A itself (the low-rank GGN Laplace of
Daxberger et al. 2021, "Laplace Redux"). ``gp.gram_side`` picks that
side and checks its size, as it does for the GP fits. The linearization
point never moves, so on the kernel side the fit builds the n*c square
tangent kernel K = J'J once and maps it by each iteration's M_i:
B'B = blockdiag(M_i) K blockdiag(M_i'). A Laplace draw is exact:
mean + A^-1 (sqrt(lam) z + B v) for standard normal z and v, two
triangular solves with the same Gram's Cholesky factor. With the Fisher
pinned to the training inputs the fit factors the Gram of its last
Newton iteration, built at the returned mean, once, and keeps that
iteration's Fisher output maps; the two serve every draw.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, FitError, TrainingDivergenceError
from .fisher import _softmax_fisher_apply
from .gp import check_square, cholesky_solve, gram_cholesky, gram_side, gram_solve, kernel_matrix, smaller_gram
from .linalg import SymmetricLinearOperator, lanczos_factorize, lowrank_inverse_root
from .net import (
    Adam, JacobianOperator, MlpNetwork, _backward, _check_finite, _forward_mode, _layer_views,
    _log_softmax, _minibatches, _sigmoid, _softplus,
)
from .seeding import substream
from .serialize import float_lines, render_csv

log = logging.getLogger(__name__)

SVI_RAW_SCALE_INIT = -5.0
FIT_METHODS = ("map", "svi", "laplace")
FISHER_SOURCES = ("train", "test_batch")
PREDICT_MODES = ("mean", "single_sample")


@dataclass(frozen=True)
class LinearizedGlm:
    """Linearization point plus the coefficients that actually move."""

    network: MlpNetwork
    coefficients: np.ndarray
    include_network_output: bool = False
    prior_variance: float = 1.0

    def __post_init__(self):
        arch = self.network.architecture
        if arch.heteroscedastic:
            raise ContractViolationError("classification nets must not be heteroscedastic")
        if arch.output_dim < 2:
            raise ContractViolationError(
                f"need at least 2 output classes, got {arch.output_dim}"
            )
        coeff = np.asarray(self.coefficients, dtype=np.float64)
        if coeff.shape != (arch.parameter_count,):
            raise ContractViolationError(
                f"coefficients of shape {coeff.shape} do not match "
                f"parameter count {arch.parameter_count}"
            )
        if not np.all(np.isfinite(coeff)):
            raise ContractViolationError("coefficients contain non-finite entries")
        if not 0 < self.prior_variance < math.inf:
            raise ContractViolationError(
                f"prior variance must be positive and finite, got {self.prior_variance}"
            )
        coeff = coeff.copy()
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    @property
    def num_classes(self) -> int:
        return self.network.architecture.output_dim

    def with_coefficients(self, coefficients: np.ndarray) -> "LinearizedGlm":
        return replace(self, coefficients=coefficients)


def zero_coefficients_glm(
    network: MlpNetwork,
    include_network_output: bool = False,
    prior_variance: float = 1.0,
) -> LinearizedGlm:
    return LinearizedGlm(
        network=network,
        coefficients=np.zeros(network.architecture.parameter_count),
        include_network_output=include_network_output,
        prior_variance=prior_variance,
    )


@dataclass(frozen=True)
class ClassificationData:
    """Inputs with integer class labels."""

    x: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        labels = np.asarray(self.labels)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ContractViolationError(f"inputs must be a nonempty 2-d array, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ContractViolationError("inputs contain non-finite entries")
        if labels.shape != (x.shape[0],):
            raise ContractViolationError(
                f"labels of shape {labels.shape} do not match {x.shape[0]} inputs"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise ContractViolationError("labels must be integers")
        if labels.min() < 0:
            raise ContractViolationError("labels must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _check_labels(model: LinearizedGlm, data: ClassificationData):
    if data.labels.max() >= model.num_classes:
        raise ContractViolationError(
            f"label {data.labels.max()} out of range for {model.num_classes} classes"
        )


def _logits(model: LinearizedGlm, jac: JacobianOperator, coeff_layers: tuple) -> np.ndarray:
    """Logits for per-layer views of finite coefficients, by the unchecked forward-mode pass."""
    logits = _forward_mode(jac, coeff_layers)
    if model.include_network_output:
        logits += jac.outputs
    return logits


def glm_logits(model: LinearizedGlm, x: np.ndarray) -> np.ndarray:
    """Logits J' theta' (plus f(X; theta) in the full Taylor view), one row per datum."""
    coeff_layers = _layer_views(model.network.architecture, model.coefficients)
    return _logits(model, JacobianOperator(model.network, x), coeff_layers)


def _softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits))


@dataclass(frozen=True)
class GlmFitConfig:
    """Minibatch Adam settings of ``fit_map`` and ``fit_svi``; ``fit_laplace`` takes none."""

    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ContractViolationError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 0:
            raise ContractViolationError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractViolationError(f"batch size must be positive, got {self.batch_size}")


@dataclass(frozen=True)
class MapPosterior:
    coefficients: np.ndarray


@dataclass(frozen=True)
class MeanFieldPosterior:
    mu: np.ndarray
    raw_scales: np.ndarray

    def __post_init__(self):
        if np.ndim(self.mu) != 1 or np.shape(self.raw_scales) != np.shape(self.mu):
            raise ContractViolationError(
                "mean-field mu and raw_scales must be vectors of one length, "
                f"got shapes {np.shape(self.mu)} and {np.shape(self.raw_scales)}"
            )

    @property
    def scales(self) -> np.ndarray:
        return _softplus(self.raw_scales)


@dataclass(frozen=True)
class LaplacePosterior:
    """The penalized NLL's exact mode with Fisher-plus-prior precision.

    The mean and the Fisher inputs are stored. ``fisher_x`` fixes the
    inputs the Fisher is estimated on; ``None`` defers to the prediction
    batch, which makes predictions depend on batch composition and
    exists to mirror that published variant. For pinned inputs
    ``fit_laplace`` keeps two parts of the precision at the mean from its
    last Newton iteration: ``gram_factor``, the lower Cholesky factor of
    the precision's Gram (``_shifted_gram``, on the kernel side mapped
    from the fit's one tangent kernel) as ``gp.gram_cholesky``'s panels,
    and ``fisher_map``, the (n, c - 1, c) output map of the Fisher root B
    (``_fisher_root``) on the n rows of ``fisher_x``. A draw solves with
    a kept factor and builds B from the kept map; with no factor it
    rebuilds B at the mean and builds and factors the Gram the same way,
    to the same bits.
    """

    mean: np.ndarray
    n_train: int
    prior_variance: float
    fisher_x: np.ndarray | None
    gram_factor: tuple[np.ndarray, ...] | None = None
    fisher_map: np.ndarray | None = None

    def __post_init__(self):
        if self.n_train < 1:
            raise ContractViolationError(f"the Laplace posterior needs n_train >= 1, got {self.n_train}")
        if self.fisher_x is None and (self.gram_factor is not None or self.fisher_map is not None):
            raise ContractViolationError("a test-batch Fisher has no Gram to cache")
        if self.gram_factor is not None and self.fisher_map is None:
            raise ContractViolationError("a kept Gram factor needs the Fisher map it was built from")


GaussianPosteriorApprox = MapPosterior | MeanFieldPosterior | LaplacePosterior


@dataclass(frozen=True)
class GlmMapResult:
    model: LinearizedGlm
    loss_trace: np.ndarray

    @property
    def posterior(self) -> MapPosterior:
        return MapPosterior(coefficients=self.model.coefficients)


@dataclass(frozen=True)
class GlmSviResult:
    posterior: MeanFieldPosterior
    elbo_trace: np.ndarray


# Overflow ends in the typed divergence errors below, not in raw numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def fit_map(model: LinearizedGlm, data: ClassificationData, cfg: GlmFitConfig) -> GlmMapResult:
    """Adam on the penalized NLL; the linearization point never moves.

    As in ``net.train``, the fit steps one coefficient buffer that it owns,
    and one gradient buffer, each with its layer views bound once. A step
    traces its batch in one ``JacobianOperator`` of the frozen network,
    takes the logits by ``_logits`` (the forward-mode pass) on the
    coefficient views, checks the logit gradient softmax - one-hot
    (``_minibatches`` gathers the one-hot rows beside the inputs), runs
    the reverse pass (``net._backward``) into the gradient views, and
    writes the checked Adam update back into the buffer. The epoch-end
    objective takes the same logits pass over all of ``data``.
    """
    _check_labels(model, data)
    arch = model.network.architecture
    rng = substream(cfg.seed, "glm-map")
    coeff = model.coefficients.copy()
    coeff_layers = _layer_views(arch, coeff)
    grad = np.empty_like(coeff)
    grad_layers = _layer_views(arch, grad)
    adam = Adam(coeff.size, cfg.learning_rate)
    penalty = np.empty_like(coeff)
    onehot = np.eye(model.num_classes)[data.labels]
    n = data.n
    rows = np.arange(n)
    trace = []
    for epoch in range(cfg.epochs):
        for x, targets in _minibatches(rng, cfg.batch_size, data.x, onehot):
            jac = JacobianOperator(model.network, x)
            grad_logits = _softmax(_logits(model, jac, coeff_layers))
            grad_logits -= targets
            _check_finite(grad_logits, "logit gradient", epoch)
            _backward(jac, grad_logits, grad_layers)
            # scale * (B g) + coeff / prior, the penalized gradient, in place.
            grad *= n / len(x)
            grad += np.divide(coeff, model.prior_variance, out=penalty)
            stepped = adam.step(coeff, grad)
            _check_finite(stepped, "MAP coefficients", epoch)
            np.copyto(coeff, stepped)
        jac = JacobianOperator(model.network, data.x)
        log_q = _log_softmax(_logits(model, jac, coeff_layers))
        nll = -float(log_q[rows, data.labels].sum())
        epoch_loss = nll + float(coeff @ coeff) / (2.0 * model.prior_variance)
        _check_finite(epoch_loss, "MAP objective", epoch)
        trace.append(epoch_loss)
    return GlmMapResult(model=model.with_coefficients(coeff), loss_trace=np.array(trace))


def kl_meanfield_to_prior(mu: np.ndarray, scales: np.ndarray, prior_variance: float) -> float:
    """KL(N(mu, diag(scales^2)) || N(0, prior_variance I)), coordinatewise closed form."""
    mu = np.asarray(mu, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    if np.any(scales <= 0):
        raise ContractViolationError("posterior scales must be strictly positive")
    if not prior_variance > 0:
        raise ContractViolationError(f"prior variance must be positive, got {prior_variance}")
    var_ratio = scales * scales / prior_variance
    return float(np.sum(0.5 * (var_ratio + mu * mu / prior_variance - 1.0) - 0.5 * np.log(var_ratio)))


# Overflow ends in the typed divergence errors below, not in raw numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def fit_svi(model: LinearizedGlm, data: ClassificationData, cfg: GlmFitConfig) -> GlmSviResult:
    """Mean-field Gaussian over the coefficients by a one-sample reparameterized ELBO.

    Adam steps one [mu | raw scales] buffer. A step takes ``fit_map``'s passes on
    bound views of a theta = mu + softplus(raw) z buffer and of its gradient.
    """
    _check_labels(model, data)
    arch = model.network.architecture
    rng = substream(cfg.seed, "glm-svi")
    p = arch.parameter_count
    state = np.concatenate([np.zeros(p), np.full(p, SVI_RAW_SCALE_INIT)])
    mu, raw = state[:p], state[p:]
    grad = np.empty_like(state)
    theta, g_theta = np.empty(p), np.empty(p)
    theta_layers, g_layers = _layer_views(arch, theta), _layer_views(arch, g_theta)
    adam = Adam(state.size, cfg.learning_rate)
    n = data.n
    prior = model.prior_variance
    elbo_trace = []
    for epoch in range(cfg.epochs):
        # The epoch's batch order is drawn before its z draws.
        for x, labels in _minibatches(rng, cfg.batch_size, data.x, data.labels):
            scales = _softplus(raw)
            if not (scales > 0).all():
                raise TrainingDivergenceError(
                    f"variational scales collapsed to zero at epoch {epoch}", epoch=epoch
                )
            z = rng.standard_normal(p)
            np.add(mu, scales * z, out=theta)
            jac = JacobianOperator(model.network, x)
            log_q = _log_softmax(_logits(model, jac, theta_layers))
            rows = np.arange(len(x))
            grad_logits = np.exp(log_q)
            grad_logits[rows, labels] -= 1.0
            _check_finite(grad_logits, "logit gradient", epoch)
            _backward(jac, grad_logits, g_layers)
            scale = n / len(x)
            g_theta *= scale
            np.add(g_theta, mu / prior, out=grad[:p])
            np.multiply(g_theta * z + scales / prior - 1.0 / scales, _sigmoid(raw), out=grad[p:])
            nll = -float(log_q[rows, labels].sum())
            loss = scale * nll + kl_meanfield_to_prior(mu, scales, prior)
            _check_finite(loss, "ELBO", epoch)
            elbo_trace.append(-loss)
            stepped = adam.step(state, grad)
            _check_finite(stepped, "variational parameters", epoch)
            np.copyto(state, stepped)
    return GlmSviResult(
        posterior=MeanFieldPosterior(mu=mu, raw_scales=raw),
        elbo_trace=np.array(elbo_trace),
    )


# Newton's method on the penalized NLL. Its stopping rule reads the Newton
# decrement g' A^-1 g / 2 (the predicted decrease to the mode) in units of
# max(1, |f|). Above NEWTON_RESOLVED the objective can tell a step's
# decrease from roundoff, so a step backtracks until it passes an Armijo
# test. Below it every step is taken whole, and the fit stops once the
# decrement is under NEWTON_TOLERANCE or no longer falls (roundoff).
NEWTON_MAX_ITERATIONS = 50
NEWTON_RESOLVED = 1e-10
NEWTON_TOLERANCE = 1e-26
ARMIJO_FRACTION = 1e-4
MAX_BACKTRACKS = 60


# Overflow at a rejected trial point ends in a backtrack, not in raw numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def fit_laplace(
    model: LinearizedGlm,
    data: ClassificationData,
    fisher_source: str = "train",
) -> LaplacePosterior:
    """The penalized NLL's exact mode by Newton's method, with the precision there.

    One forward trace of the training inputs serves every iteration, which
    starts from ``model.coefficients``, and on the kernel side so does one
    tangent kernel K = J'J (``_tangent_kernel``), built before the first.
    An iteration takes the logits by ``_logits`` and the gradient
    g = J (softmax - one-hot) + theta / prior by ``net._backward`` on
    bound views of the iterate. The Hessian is the precision
    A = lam I + B B' at the iterate, with B its Fisher root
    (``_fisher_root``), so the Newton step A^-1 g is one solve with the
    Gram that ``_shifted_gram`` builds on B's smaller side:
    (g - B (lam I + B'B)^-1 B'g) / lam by the Woodbury identity on the
    kernel side, where the Gram is K mapped by the iterate's M_i, as
    ``_laplace_draw`` solves, or a solve with A itself. The iterate at
    which the stopping rule above holds is the mean. A DEBUG record on
    the ``tangentgp`` logger reports the iterations, the line search's
    halvings, the final decrement and the Gram's side and size.

    Each step solves by LU (``gp.gram_solve``), which costs less than a
    Cholesky factor and its two substitutions per iteration.
    ``fisher_source="train"`` pins the Fisher to the training inputs and,
    after the loop, keeps the last iteration's parts, built at the mean:
    its Gram factored once by Cholesky, as ``gram_factor``, and its Fisher
    root's output map, as ``fisher_map``. ``"test_batch"`` leaves the
    Fisher to be estimated on each prediction batch and keeps neither.
    Either way the fit optimizes on the training inputs. ``FitError`` is
    raised when ``NEWTON_MAX_ITERATIONS`` pass or a line search fails,
    ``ResourceLimitError`` before anything is built when the Gram or, on
    the kernel side, K is over the size cap, and ``NumericBreakdownError``
    when a solve or the final Cholesky fails.
    """
    if fisher_source not in FISHER_SOURCES:
        raise ContractViolationError(
            f"fisher_source must be 'train' or 'test_batch', got {fisher_source!r}"
        )
    _check_labels(model, data)
    arch = model.network.architecture
    prior = model.prior_variance
    jac = JacobianOperator(model.network, data.x)
    kernel = _tangent_kernel(jac)
    coeff = model.coefficients.copy()
    grad, step = np.empty_like(coeff), np.empty_like(coeff)
    coeff_layers, grad_layers, step_layers = (_layer_views(arch, b) for b in (coeff, grad, step))
    rows = np.arange(data.n)

    def objective(logits, theta):
        log_q = _log_softmax(logits)
        return float(theta @ theta) / (2.0 * prior) - float(log_q[rows, data.labels].sum()), log_q

    last = math.inf
    backtracks = 0
    for iteration in range(1, NEWTON_MAX_ITERATIONS + 1):
        logits = _logits(model, jac, coeff_layers)
        value, log_q = objective(logits, coeff)
        probs = np.exp(log_q)
        grad_logits = probs.copy()
        grad_logits[rows, data.labels] -= 1.0
        _backward(jac, grad_logits, grad_layers)
        grad += coeff / prior
        fisher = _fisher_root(jac, probs, 1.0)
        gram = _shifted_gram(fisher, kernel, prior)
        if kernel is not None:
            np.subtract(grad, fisher.vjp(gram_solve(gram, fisher.jvp(grad))), out=step)
            step *= prior
        else:
            step[:] = gram_solve(gram, grad)
        decrement = float(grad @ step) / 2.0
        scale = max(1.0, abs(value))
        resolved = decrement > NEWTON_RESOLVED * scale
        if not resolved and (decrement <= NEWTON_TOLERANCE * scale or decrement >= last):
            log.debug(
                "Laplace fit: Newton's method took %d iterations and %d backtracks to a decrement "
                "of %.3g; %s-side Gram %d x %d",
                iteration, backtracks, decrement, "kernel" if kernel is not None else "parameter", *gram.shape,
            )
            pinned = fisher_source == "train"
            return LaplacePosterior(
                mean=coeff,
                n_train=data.n,
                prior_variance=prior,
                fisher_x=data.x if pinned else None,
                gram_factor=gram_cholesky(gram) if pinned else None,
                fisher_map=fisher.output_map if pinned else None,
            )
        size = 1.0
        if resolved:
            # The logits are linear in theta: a trial point's are logits - size * J' step.
            slope = _forward_mode(jac, step_layers)
            for halvings in range(MAX_BACKTRACKS + 1):
                size = 0.5**halvings
                trial, _ = objective(logits - size * slope, coeff - size * step)
                if trial <= value - ARMIJO_FRACTION * size * 2.0 * decrement:
                    backtracks += halvings
                    break
            else:
                raise FitError(
                    f"Newton line search found no sufficient decrease in {MAX_BACKTRACKS} halvings "
                    f"(objective {value:.6g}, Newton decrement {decrement:.3g})"
                )
        coeff -= size * step
        last = decrement
    raise FitError(
        f"Newton's method did not reach the Laplace mode in {NEWTON_MAX_ITERATIONS} "
        f"iterations (Newton decrement {decrement:.3g})"
    )


def _fisher_at_map(model: LinearizedGlm, posterior: LaplacePosterior, x):
    """The Laplace Fisher's parts: Jacobian view, MAP probabilities, upscale.

    The Fisher is upscale * J blockdiag(diag(p_i) - p_i p_i') J' on the
    pinned inputs (or on ``x`` in test-batch mode), with p_i the linearized
    model's class probabilities at the MAP and upscale = n_train / n.
    """
    fisher_x = posterior.fisher_x if posterior.fisher_x is not None else x
    if fisher_x is None:
        raise ContractViolationError(
            "test-batch Fisher needs the prediction inputs; pass x"
        )
    mean = model.with_coefficients(posterior.mean).coefficients  # checks its length and finiteness
    jac = JacobianOperator(model.network, fisher_x)
    probs = _softmax(_logits(model, jac, _layer_views(model.network.architecture, mean)))
    return jac, probs, posterior.n_train / jac.n_data


def laplace_precision(
    model: LinearizedGlm,
    posterior: LaplacePosterior,
    x: np.ndarray | None = None,
) -> SymmetricLinearOperator:
    """n F(theta_MAP) + prior_variance^{-1} I as a matrix-free operator.

    The Fisher blocks use the linearized model's own predictive
    probabilities at the MAP coefficients, averaged over the pinned
    inputs (or over ``x`` in test-batch mode) and upscaled to the
    training-set size. A reference for the Laplace draws.
    """
    jac, probs, upscale = _fisher_at_map(model, posterior, x)

    def base(v):
        tangent = jac.jvp(v).reshape(probs.shape)
        return upscale * jac.vjp(_softmax_fisher_apply(probs, tangent).ravel())

    return SymmetricLinearOperator(
        dim=jac.param_count, base=base, shift=1.0 / posterior.prior_variance
    )


def sample_gaussian_from_precision(
    op: SymmetricLinearOperator,
    mean: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One draw from N(mean, op^{-1}) for any matrix-free precision, via Lanczos.

    A generic reference: it needs only products with ``op``. The draw is
    mean + |z| Q T^{-1/2} e_1 for z = rng.standard_normal(op.dim), which
    equals mean + op^{-1/2} z (up to roundoff) once the Krylov space of z
    exhausts, after at most rank(op - shift I) + 1 of the op.dim steps
    allowed.
    """
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (op.dim,):
        raise ContractViolationError(
            f"mean of shape {mean.shape} does not match operator dim {op.dim}"
        )
    z = rng.standard_normal(op.dim)
    factors = lanczos_factorize(op, z, op.dim)
    root = lowrank_inverse_root(factors)
    return mean + float(np.linalg.norm(z)) * root[:, 0]


def _fisher_root(jac: JacobianOperator, probs: np.ndarray, upscale: float) -> JacobianOperator:
    """B = sqrt(upscale) J blockdiag(M_i), the Fisher's root at class probabilities ``probs``, as a mapped operator.

    M_i M_i' = diag(p_i) - p_i p_i'. M_i = L_i Q_i, with
    L_i = diag(sqrt p_i) - p_i sqrt(p_i)' and Q_i the first c - 1 columns of the Householder
    reflector taking sqrt(p_i) to -e_c: L_i sqrt(p_i) = 0, so Q_i drops
    only the null direction, and B has the Fisher's rank bound n*(c-1)
    as its column count m. B'z and B w are the operator's ``jvp`` and ``vjp``.
    """
    c = probs.shape[1]
    # sqrt(upscale) L_i' blocks, [a, b] = sqrt(upscale p_a) (delta_ab - p_b),
    # then Q_i' applied: the reflector's rows a < c - 1 subtract
    # sqrt(p_a) / (1 + sqrt(p_c)) times the last row.
    sqrt_p = np.sqrt(probs)[:, :, None]
    root_t = math.sqrt(upscale) * sqrt_p * (np.eye(c) - probs[:, None, :])
    root_t = root_t[:, :-1] - sqrt_p[:, :-1] * root_t[:, -1:] / (1.0 + sqrt_p[:, -1:])
    return jac.mapped(root_t)


def _tangent_kernel(jac: JacobianOperator) -> np.ndarray | None:
    """K = J'J, the n*c square tangent kernel at ``jac``'s inputs, when its Fisher root's Gram is on the kernel side; else None.

    A Fisher root B = J blockdiag(M_i') of ``jac`` has m = n*(c-1)
    columns. ``gp.gram_side`` picks B's side and checks its square
    against the cap; on the kernel side K's n*c square is checked too.
    Both checks come before anything is built. K, one ``gp.kernel_matrix``
    call, serves the Gram of B for any maps M_i (``_shifted_gram``).
    """
    if not gram_side(jac.n_data * (jac.out_dim - 1), jac.param_count):
        return None
    check_square(jac.out_len, "the Laplace Gram's tangent kernel")
    return kernel_matrix(jac.network, jac)


def _shifted_gram(fisher: JacobianOperator, kernel: np.ndarray | None, prior_variance: float) -> np.ndarray:
    """The precision's Gram on the smaller side of B, shifted by lam = 1 / prior_variance.

    With the tangent kernel K of ``_tangent_kernel``, lam I + B'B (m
    square) from B'B = blockdiag(M_i) K blockdiag(M_i'), M_i (c-1) x c
    the Fisher root's output maps, by two batched products with them.
    With None, the p square precision lam I + B B' itself
    (``gp.smaller_gram``).
    """
    if kernel is None:
        _, gram = smaller_gram(fisher)
    else:
        maps = fisher.output_map
        n, k, c = maps.shape
        left = (maps @ kernel.reshape(n, c, n * c)).reshape(n * k, n * c)  # M K
        # M (M K)' = M K M', as K is symmetric.
        gram = (maps @ left.T.reshape(n, c, n * k)).reshape(n * k, n * k)
    gram[np.diag_indices_from(gram)] += 1.0 / prior_variance
    return gram


def _laplace_draw(model: LinearizedGlm, posterior: LaplacePosterior, x, rng) -> np.ndarray:
    """mean + A^{-1} (sqrt(lam) z + B v), with A the Laplace precision, from one factor.

    A = lam I + B B' with lam = 1 / prior_variance and B the Fisher root
    of ``_fisher_root`` at the mean. ``rng`` draws z ~ N(0, I_p), then v ~ N(0, I_m),
    and sqrt(lam) z + B v ~ N(0, A), so the draw's covariance is exactly
    A^{-1}. On the kernel side of ``_shifted_gram`` the Woodbury identity
    makes it z / sqrt(lam) + B (lam I + B'B)^{-1} (v - B'z / sqrt(lam)),
    an m square solve; on the p side it is a solve with A. Either solve
    is ``gp.cholesky_solve``'s two triangular substitutions with the
    Gram's Cholesky factor. When the fit kept the factor, B is the
    Jacobian operator of ``fisher_x`` under the kept ``fisher_map``, and
    the draw neither evaluates the logits at the mean nor builds a Gram;
    otherwise B is rebuilt at the mean and its Gram built as the fit
    builds it (``_tangent_kernel``, then ``_shifted_gram``) and factored
    here. Both give the same bits.
    """
    factor = posterior.gram_factor
    if factor is None:
        jac, probs, upscale = _fisher_at_map(model, posterior, x)
        fisher = _fisher_root(jac, probs, upscale)
        factor = gram_cholesky(_shifted_gram(fisher, _tangent_kernel(jac), posterior.prior_variance))
    else:
        fisher = JacobianOperator(model.network, posterior.fisher_x).mapped(posterior.fisher_map)
    z, v = rng.standard_normal(fisher.param_count), rng.standard_normal(fisher.out_len)
    s = math.sqrt(1.0 / posterior.prior_variance)
    # The side rule takes the kernel side on a tie, m = p.
    if factor[-1].shape[1] == fisher.out_len:
        w = cholesky_solve(factor, v - fisher.jvp(z) / s)
        return posterior.mean + z / s + fisher.vjp(w)
    return posterior.mean + cholesky_solve(factor, s * z + fisher.vjp(v))


def predict_class(
    model: LinearizedGlm,
    approx: GaussianPosteriorApprox,
    x: np.ndarray,
    mode: str = "mean",
    seed: int = 0,
):
    """Class probabilities and argmax labels under a fitted posterior.

    ``mode="mean"`` evaluates at the posterior mean; ``"single_sample"``
    draws one coefficient vector for the whole batch from
    ``substream(seed, "glm-predict")`` (Laplace: z, then v). Zero query
    rows give (0, c) probabilities in every mode, with no draw. Ties in
    the argmax resolve to the lowest class index.
    """
    if mode not in PREDICT_MODES:
        raise ContractViolationError(f"mode must be 'mean' or 'single_sample', got {mode!r}")
    # No draw for no rows: a test-batch Fisher would have no inputs.
    draw = mode == "single_sample" and len(x) > 0
    if isinstance(approx, MapPosterior):
        coeff = approx.coefficients
    elif isinstance(approx, MeanFieldPosterior):
        coeff = approx.mu
        if draw:
            coeff = coeff + approx.scales * substream(seed, "glm-predict").standard_normal(coeff.size)
    elif isinstance(approx, LaplacePosterior):
        coeff = _laplace_draw(model, approx, x, substream(seed, "glm-predict")) if draw else approx.mean
    else:
        raise ContractViolationError(f"unknown posterior kind {type(approx).__name__}")
    probs = _softmax(glm_logits(model.with_coefficients(coeff), x))
    labels = np.argmax(probs, axis=1)
    return probs, labels


def prediction_csv(probs: np.ndarray, labels: np.ndarray) -> str:
    header = ["index", "label"] + [f"prob_{c}" for c in range(probs.shape[1])]
    rows = [[str(i), str(label), line] for i, (label, line) in enumerate(zip(labels.tolist(), float_lines(probs)))]
    return render_csv(header, rows)
