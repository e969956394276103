"""Small dense networks with hand-rolled derivatives.

Exact, inspectable Jacobian products come first. ``JacobianOperator``
caches one forward trace and then answers reverse-mode products (J u),
forward-mode products (J' v), the per-layer inputs and output sensitivities
that tangent kernels are assembled from, row slices that share its trace,
and a dense assembly from the same sensitivities (the GP's p-side blocks
and a test oracle). An output map M_i per datum turns J into
B = J blockdiag(M_i'): ``channels`` is the constant one-hot map, and
``mapped`` gives a per-datum map (the GLM's Fisher root) on the same
trace. The parameter layout is computed once per architecture and the
per-layer views once per network. ``train`` binds the layer views of one
parameter buffer and one gradient buffer once per run, so a minibatch step
builds no network: it traces its batch in one operator over that buffer
and runs the reverse pass that ``vjp`` runs (``_backward``) into the
gradient views. ``glm``'s MAP and SVI fits bind their coefficient and
gradient buffers the same way: each step runs ``jvp``'s forward-mode pass
(``_forward_mode``) on the coefficient views, and ``_backward`` into the
gradient views. The optimizers (``Adam``, ``SgdMomentum``) allocate their
state and scratch once per run and update them in place, and the forward,
forward-mode and reverse passes accumulate into the arrays their matrix
products return, so a step allocates little beyond those products. Every
first-order fit (``train``, ``adapt``'s last-layer refit, the GLM's MAP and
SVI fits) takes its batches from ``_minibatches`` and its divergence checks
from ``_check_finite``.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    ResourceLimitError,
    TrainingDivergenceError,
)
from .seeding import substream

DENSE_JACOBIAN_CAP = 10**8

# Adam's moment decay rates and denominator offset (Kingma and Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OPTIMIZERS = ("sgd-momentum", "adam")
LOSSES = ("mse", "heteroscedastic-gaussian", "categorical-ce")


def _tanh(z):
    t = np.tanh(z)
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    return t, slope


def _relu(z):
    # Subgradient choice: derivative at exactly zero is zero.
    return np.maximum(z, 0.0), (z > 0.0).astype(np.float64)


def _identity(z):
    return z, np.ones_like(z)


# Each activation returns (value, slope) from one evaluation, so a forward
# trace pays for tanh once per hidden layer.
ACTIVATIONS = {
    "tanh": _tanh,
    "relu": _relu,
    "identity": _identity,
}


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softplus(z):
    return np.logaddexp(0.0, z)


@dataclass(frozen=True)
class MlpArchitecture:
    """Shape of a fully connected network.

    ``heteroscedastic`` doubles the internal output width: each declared
    channel c is emitted as an interleaved (mean, raw-scale) pair at
    internal columns 2c and 2c + 1. The raw scale parameterizes a
    variance 1e-5 + softplus(raw).

    Parameters are flattened layer-major, weights before bias, with each
    weight matrix stored row-major in (fan_out, fan_in) shape. The layout
    (``layer_dims``, ``parameter_count``, ``layer_slices()``) is computed
    once at construction and never mutated afterwards.
    """

    input_dim: int
    hidden_widths: tuple[int, ...]
    output_dim: int
    activation: str = "tanh"
    heteroscedastic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ContractViolationError("input_dim and output_dim must be positive")
        if any(w < 1 for w in self.hidden_widths):
            raise ContractViolationError(f"hidden widths must be positive, got {self.hidden_widths}")
        if self.activation not in ACTIVATIONS:
            raise ContractViolationError(
                f"activation must be one of {sorted(ACTIVATIONS)}, got {self.activation!r}"
            )
        dims = (self.input_dim, *self.hidden_widths, self.internal_output_dim)
        slices = []
        offset = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = slice(offset, offset + fan_in * fan_out)
            b = slice(w.stop, w.stop + fan_out)
            offset = b.stop
            slices.append((w, b, fan_in, fan_out))
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "parameter_count", offset)
        object.__setattr__(self, "_layer_slices", tuple(slices))

    @property
    def internal_output_dim(self) -> int:
        return 2 * self.output_dim if self.heteroscedastic else self.output_dim

    @property
    def regression_channels(self) -> tuple[int, ...] | None:
        """The internal outputs a GP regresses ``output_dim``-wide targets on: None
        (all) for a homoscedastic net, the mean columns 0, 2, ... for a heteroscedastic one."""
        return tuple(range(0, 2 * self.output_dim, 2)) if self.heteroscedastic else None

    def layer_slices(self) -> tuple:
        """Per-layer (weight_slice, bias_slice, fan_in, fan_out) into the flat vector."""
        return self._layer_slices

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_widths": list(self.hidden_widths),
            "output_dim": self.output_dim,
            "activation": self.activation,
            "heteroscedastic": self.heteroscedastic,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpArchitecture":
        """The inverse of ``to_dict``, for a dict of its keys checked by ``config``."""
        return cls(
            input_dim=d["input_dim"],
            hidden_widths=tuple(d["hidden_widths"]),
            output_dim=d["output_dim"],
            activation=d["activation"],
            heteroscedastic=d["heteroscedastic"],
        )


def _layer_views(architecture: MlpArchitecture, flat: np.ndarray) -> tuple:
    """Per-layer (weight matrix, bias) views of a flat vector in ``architecture``'s layout."""
    return tuple(
        (flat[w_sl].reshape(fan_out, fan_in), flat[b_sl])
        for w_sl, b_sl, fan_in, fan_out in architecture.layer_slices()
    )


@dataclass(frozen=True)
class MlpNetwork:
    """An architecture bound to a flat parameter vector."""

    architecture: MlpArchitecture
    params: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=np.float64)
        expected = self.architecture.parameter_count
        if params.shape != (expected,):
            raise ContractViolationError(
                f"parameter vector of shape {params.shape} does not match "
                f"architecture with {expected} parameters"
            )
        if not np.isfinite(params).all():
            raise ContractViolationError("parameter vector contains non-finite entries")
        params = params.copy()
        params.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_layers", _layer_views(self.architecture, params))

    def layers(self) -> tuple:
        """Read-only views of the flat vector as per-layer (weight matrix, bias) pairs."""
        return self._layers

    def with_params(self, params: np.ndarray) -> "MlpNetwork":
        """The same architecture bound to a validated, read-only copy of ``params``."""
        return MlpNetwork(self.architecture, params)

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(json.dumps(self.architecture.to_dict(), sort_keys=True).encode())
        digest.update(self.params.tobytes())
        return digest.hexdigest()


def init_network(architecture: MlpArchitecture, seed: int) -> MlpNetwork:
    """Seeded initialization: weights Uniform(+-1/sqrt(fan_in)), biases zero."""
    rng = substream(seed, "init")
    parts = []
    dims = architecture.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).ravel())
        parts.append(np.zeros(fan_out))
    return MlpNetwork(architecture, np.concatenate(parts))


@dataclass(frozen=True)
class TaskDataset:
    """Inputs, targets, and an observation-noise variance for one task."""

    x: np.ndarray
    y: np.ndarray
    noise_variance: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2:
            raise ContractViolationError("inputs and targets must be 2-D arrays")
        if x.shape[0] != y.shape[0] or x.shape[0] < 1:
            raise ContractViolationError(
                f"inputs ({x.shape[0]} rows) and targets ({y.shape[0]} rows) must share n >= 1"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ContractViolationError("dataset contains non-finite entries")
        if not 0 < self.noise_variance < np.inf:
            what = "positive" if not self.noise_variance > 0 else "finite"
            raise ContractViolationError(f"noise variance must be {what}, got {self.noise_variance}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _forward_trace(network: MlpNetwork, x: np.ndarray):
    """Forward pass keeping per-layer inputs and hidden activation slopes.

    Each hidden activation is evaluated once; its slope comes from the
    same evaluation (for tanh, 1 - t*t of the same t).
    """
    act = ACTIVATIONS[network.architecture.activation]
    layers = network.layers()
    last = len(layers) - 1
    inputs = []
    slopes = []
    h = x
    for idx, (w, b) in enumerate(layers):
        inputs.append(h)
        z = h @ w.T
        z += b
        if idx < last:
            h, slope = act(z)
            slopes.append(slope)
        else:
            h = z
    return h, inputs, slopes


def forward(network: MlpNetwork, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of inputs.

    Returns an (n, output_dim) array, or (n, 2 * output_dim) with
    interleaved (mean, raw-scale) pairs for heteroscedastic networks.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != network.architecture.input_dim:
        raise ContractViolationError(
            f"inputs of shape {x.shape} do not match input_dim {network.architecture.input_dim}"
        )
    out, _, _ = _forward_trace(network, x)
    return out


class JacobianOperator:
    """Matrix-free view of the p x (n*k) Jacobian B = J blockdiag(M_i') of f(X; theta) in theta.

    J is the Jacobian of the network's internal outputs and M_i (k x full)
    the output map of datum i, so column i*k + a is the gradient of
    <M_i[a], f(x_i)> (datum-major flattening). ``output_map`` holds M:
    None for the identity, a constant (k, full) map, or one (n, k, full)
    map per datum. ``channels`` builds the constant one-hot map that
    selects the given internal output columns, in that order (the GP's
    regression view passes ``MlpArchitecture.regression_channels``);
    ``mapped`` maps this view further, datum by
    datum. ``o`` (``out_dim``) is the map's row count k. The forward trace
    is computed once at construction and shared by ``mapped`` and ``rows``
    views, so products cost one additional pass each.
    """

    def __init__(self, network: MlpNetwork, inputs: np.ndarray, channels=None):
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != network.architecture.input_dim:
            raise ContractViolationError(
                f"inputs of shape {inputs.shape} do not match input_dim "
                f"{network.architecture.input_dim}"
            )
        if not np.isfinite(inputs).all():
            raise ContractViolationError("Jacobian inputs contain non-finite entries")
        full = network.architecture.internal_output_dim
        if channels is not None:
            channels = [int(c) for c in channels]
            if len(channels) == 0 or len(set(channels)) != len(channels):
                raise ContractViolationError("channels must be a nonempty set of distinct indices")
            if any(c < 0 or c >= full for c in channels):
                raise ContractViolationError(
                    f"channel indices must lie in [0, {full}), got {tuple(channels)}"
                )
        self.network = network
        self.inputs = inputs
        self.channels = channels
        self.output_map = None if channels is None else np.eye(full)[channels]
        self._weights = [w for w, _ in network.layers()]
        out, layer_inputs, slopes = _forward_trace(network, inputs)
        self.outputs = out if channels is None else out[:, channels]
        self._layer_inputs = layer_inputs
        self._slopes = slopes

    @property
    def n_data(self) -> int:
        return self.inputs.shape[0]

    @property
    def out_dim(self) -> int:
        if self.output_map is None:
            return self.network.architecture.internal_output_dim
        return self.output_map.shape[-2]

    @property
    def out_len(self) -> int:
        return self.n_data * self.out_dim

    @property
    def param_count(self) -> int:
        return self.network.architecture.parameter_count

    @property
    def maps_per_datum(self) -> bool:
        """Whether M varies by datum; else M M' = I (the identity or a channel selection)."""
        return self.output_map is not None and self.output_map.ndim == 3

    def mapped(self, output_map) -> "JacobianOperator":
        """The view whose datum i has outputs N_i g_i, for this view's outputs g_i; shares the trace.

        ``output_map`` (n, k, o) holds one k x o map N_i per datum, o = ``out_dim``; the
        view's map is N_i M_i.
        """
        m = np.asarray(output_map, dtype=np.float64)
        if m.ndim != 3 or m.shape[0] != self.n_data or m.shape[2] != self.out_dim:
            raise ContractViolationError(
                f"output map of shape {m.shape} needs shape ({self.n_data}, k, {self.out_dim})"
            )
        if not np.isfinite(m).all():
            raise ContractViolationError("output map contains non-finite entries")
        view = copy.copy(self)
        view.output_map = m if self.output_map is None else m @ self.output_map
        view.outputs = (m @ self.outputs[:, :, None])[:, :, 0]
        return view

    def vjp(self, u: np.ndarray) -> np.ndarray:
        """B u: gradient of <f(X), blockdiag(M_i') u> with respect to theta (one reverse pass)."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.out_len,):
            raise ContractViolationError(f"expected vector of length {self.out_len}, got shape {u.shape}")
        if not np.isfinite(u).all():
            raise ContractViolationError("vjp input contains non-finite entries")
        delta = u.reshape(self.n_data, self.out_dim)
        if self.output_map is not None:
            delta = (delta[:, None, :] @ self.output_map)[:, 0]
        grad = np.empty(self.param_count)
        _backward(self, delta, _layer_views(self.network.architecture, grad))
        return grad

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """B' v: exact directional derivative of the mapped outputs along v (forward mode).

        Checks v, runs the forward-mode pass that ``glm._logits`` runs on
        coefficient views (``_forward_mode``), then applies the output map.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.param_count,):
            raise ContractViolationError(
                f"expected vector of length {self.param_count}, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ContractViolationError("jvp input contains non-finite entries")
        dz = _forward_mode(self, _layer_views(self.network.architecture, v))
        if self.output_map is None:
            return dz.ravel()
        return (self.output_map @ dz[:, :, None]).ravel()

    def rows(self, start: int, stop: int) -> "JacobianOperator":
        """The operator of inputs[start:stop] and their output maps, sharing this one's forward trace."""
        part = copy.copy(self)
        part.inputs = self.inputs[start:stop]
        part.outputs = self.outputs[start:stop]
        if self.maps_per_datum:
            part.output_map = self.output_map[start:stop]
        part._layer_inputs = [h[start:stop] for h in self._layer_inputs]
        part._slopes = [s[start:stop] for s in self._slopes]
        return part

    def layer_sensitivities(self):
        """Per-layer (H, D) from the output layer back to the first.

        H (n x fan_in) holds the layer's inputs and D (n, o, fan_out) the
        sensitivities of its pre-activations: D[i, k] is the gradient of
        mapped output k at datum i. Jacobian column i*o + k holds
        outer(D[i, k], H[i]) in the layer's weights and D[i, k] in its
        bias. The output layer's D is the output map: M_i itself, or the
        identity or a channel selection broadcast over the data (a
        read-only view).
        """
        n, o = self.n_data, self.out_dim
        full = self.network.architecture.internal_output_dim
        seeds = np.eye(full) if self.output_map is None else self.output_map
        last = len(self._weights) - 1
        yield self._layer_inputs[last], np.broadcast_to(seeds, (n, o, full))
        sens = seeds.reshape(-1, full)
        for idx in range(last, 0, -1):
            sens = sens @ self._weights[idx]
            sens = sens.reshape(-1, o, sens.shape[1]) * self._slopes[idx - 1][:, None, :]
            yield self._layer_inputs[idx - 1], sens
            sens = sens.reshape(n * o, sens.shape[2])

    def dense(self) -> np.ndarray:
        """Assemble the p x (n*o) Jacobian B; column i*o + k = vjp(one-hot(i, k)).

        Built from ``layer_sensitivities``: outer(D[i, k], H[i]) in each
        layer's weights, D[i, k] in its bias. Serves the GP's p-side blocks
        (the p square B B' and feature-form variances) and the tests.
        """
        entries = self.param_count * self.out_len
        if entries > DENSE_JACOBIAN_CAP:
            raise ResourceLimitError(
                f"dense Jacobian needs {entries} entries (cap {DENSE_JACOBIAN_CAP}); "
                "use the matrix-free vjp/jvp products instead"
            )
        cols = self.out_len
        jac = np.empty((self.param_count, cols))
        for (w_sl, b_sl, fan_in, fan_out), (h, d) in zip(
            reversed(self.network.architecture.layer_slices()), self.layer_sensitivities()
        ):
            jac[w_sl] = (d[:, :, :, None] * h[:, None, None, :]).reshape(cols, fan_out * fan_in).T
            jac[b_sl] = d.reshape(cols, fan_out).T
        return jac


def _forward_mode(jac: JacobianOperator, v_layers: tuple) -> np.ndarray:
    """The forward-mode pass over ``jac``'s forward trace, shared by ``jvp`` and ``glm._logits``.

    ``v_layers`` holds per-layer (weight, bias) views of the direction v.
    Returns the (n, full) directional derivative of the internal outputs
    along v, before any output map, in a new array.
    """
    last = len(v_layers) - 1
    dh = None
    for idx, (v_w, v_b) in enumerate(v_layers):
        dz = jac._layer_inputs[idx] @ v_w.T
        dz += v_b
        if dh is not None:
            dz += dh @ jac._weights[idx].T
        if idx < last:
            dz *= jac._slopes[idx]
            dh = dz
    return dz


def _backward(jac: JacobianOperator, delta: np.ndarray, grad_layers: tuple) -> None:
    """The reverse pass over ``jac``'s forward trace, shared by ``vjp``, ``train`` and the GLM fits.

    ``delta`` (n, full) is the sensitivity of the internal outputs; the
    gradient of <f(X), delta> is written into ``grad_layers``, per-layer
    (weight, bias) views of the caller's gradient buffer.
    """
    for idx in range(len(grad_layers) - 1, -1, -1):
        grad_w, grad_b = grad_layers[idx]
        np.matmul(delta.T, jac._layer_inputs[idx], out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        if idx > 0:
            delta = delta @ jac._weights[idx]
            delta *= jac._slopes[idx - 1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, shifted by the row maximum so no exponential overflows."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _loss_and_output_grad(outputs: np.ndarray, y: np.ndarray, loss: str):
    """Loss value and its gradient with respect to the raw network outputs.

    Reduces over the last two axes (data, channels), so a (T, b, o) stack
    of outputs gives T losses, each bitwise equal to the 2-D call on its
    slice. Overflow is left to propagate as inf/nan (silently) into the loss
    and the gradient; the caller turns a non-finite loss or gradient into a
    divergence error.
    """
    n = outputs.shape[-2]
    size = n * y.shape[-1]  # scalar targets per slice
    if loss == "mse":
        r = outputs - y
        with np.errstate(over="ignore"):
            return (r * r).sum(axis=(-2, -1)) / size, (2.0 / size) * r
    if loss == "heteroscedastic-gaussian":
        mu = outputs[..., 0::2]
        raw = outputs[..., 1::2]
        var = 1e-5 + _softplus(raw)
        r = mu - y
        nll = 0.5 * (np.log(2.0 * np.pi * var) + r * r / var)
        scale = 1.0 / size
        grad = np.empty_like(outputs)
        grad[..., 0::2] = scale * r / var
        grad[..., 1::2] = scale * 0.5 * (1.0 / var - r * r / (var * var)) * _sigmoid(raw)
        return np.mean(nll, axis=(-2, -1)), grad
    if loss == "categorical-ce":
        log_prob = _log_softmax(outputs)
        loss_val = -np.mean(np.sum(y * log_prob, axis=-1), axis=-1)
        grad = (np.exp(log_prob) - y) / n
        return loss_val, grad
    raise ContractViolationError(f"loss must be one of {LOSSES}, got {loss!r}")


def _check_loss(arch: MlpArchitecture, loss: str) -> None:
    """Raise unless ``loss`` is "heteroscedastic-gaussian" exactly when ``arch`` is heteroscedastic.

    A heteroscedastic net emits a (mean, raw-scale) pair per target, which
    only that loss reads; any other loss on it, or that loss on a plain
    net, would fit the wrong columns or fail to broadcast.
    """
    if (loss == "heteroscedastic-gaussian") != arch.heteroscedastic:
        why = (
            "a heteroscedastic architecture needs 'heteroscedastic-gaussian'"
            if arch.heteroscedastic
            else "that loss needs a heteroscedastic architecture"
        )
        raise ContractViolationError(
            f"optimizer.loss {loss!r} does not fit the architecture {arch.to_dict()}: {why}"
        )


@dataclass(frozen=True)
class OptimizerConfig:
    optimizer: str = "sgd-momentum"
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    loss: str = "mse"
    seed: int = 0
    momentum: float = 0.9

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ContractViolationError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.loss not in LOSSES:
            raise ContractViolationError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ContractViolationError("epochs must be >= 0 and batch_size >= 1")
        if not 0 <= self.learning_rate < np.inf:
            raise ContractViolationError(f"learning rate must be nonnegative and finite, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ContractViolationError(f"momentum must lie in [0, 1), got {self.momentum}")


class Adam:
    """Adam with bias-corrected moments; ``step`` returns the updated parameters.

    ``train``, ``adapt.refit_last_layer``, ``glm.fit_map`` and
    ``glm.fit_svi`` all step through this one implementation. ``shape`` is
    the parameter shape: a vector, or a (T, d) stack of T vectors stepped
    together (the update is elementwise, so each row moves as its own run).
    The moments and two scratch buffers are allocated once, here, and each
    step updates them in place in the textbook operation order (Kingma and
    Ba 2015), so the steps are bitwise those of the allocating formula.
    ``step`` never writes into its ``params`` or ``grad`` arguments.
    """

    def __init__(self, shape, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = np.zeros(shape)
        self.u = np.zeros(shape)
        self._scratch = np.empty(shape)
        self._update = np.empty(shape)
        self.step_count = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.step_count += 1
        m, u, scratch, update = self.m, self.u, self._scratch, self._update
        # m = m * b1 + g * (1 - b1)
        m *= ADAM_BETA1
        np.multiply(grad, 1 - ADAM_BETA1, out=scratch)
        m += scratch
        # u = u * b2 + (g * (1 - b2)) * g
        u *= ADAM_BETA2
        np.multiply(grad, 1 - ADAM_BETA2, out=scratch)
        scratch *= grad
        u += scratch
        # update = ((m / c1) * lr) / (sqrt(u / c2) + eps)
        np.divide(u, 1 - ADAM_BETA2**self.step_count, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m, 1 - ADAM_BETA1**self.step_count, out=update)
        update *= self.learning_rate
        update /= scratch
        return params - update


class SgdMomentum:
    """Heavy-ball SGD, velocity = momentum * velocity - lr * grad, then params + velocity.

    The same interface and buffer discipline as ``Adam``: the velocity and
    one scratch buffer are allocated once, and ``step`` returns new
    parameters without writing into its arguments.
    """

    def __init__(self, shape, learning_rate: float, momentum: float):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = np.zeros(shape)
        self._scratch = np.empty(shape)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        velocity, scratch = self.velocity, self._scratch
        velocity *= self.momentum
        np.multiply(grad, self.learning_rate, out=scratch)
        velocity -= scratch
        return params + velocity


def make_optimizer(cfg: OptimizerConfig, shape):
    """The optimizer ``cfg`` names, sized for parameters of ``shape``."""
    if cfg.optimizer == "sgd-momentum":
        return SgdMomentum(shape, cfg.learning_rate, cfg.momentum)
    return Adam(shape, cfg.learning_rate)


@dataclass(frozen=True)
class TrainResult:
    network: MlpNetwork
    loss_trace: np.ndarray  # full-dataset loss after each epoch


def _minibatches(rng: np.random.Generator, batch_size: int, *arrays, axis: int = 0):
    """One epoch's batches: tuples of consecutive ``batch_size`` slices of ``arrays`` along ``axis``.

    Draws one permutation from ``rng`` at the call, before the epoch's
    first step, and gathers each array once; the last batch may be shorter.
    """
    lead = (slice(None),) * axis
    order = rng.permutation(arrays[0].shape[axis])
    cuts = [lead + (slice(s, s + batch_size),) for s in range(0, order.size, batch_size)]
    return zip(*[map(a[lead + (order,)].__getitem__, cuts) for a in arrays])


def _check_finite(values, what: str, epoch: int) -> None:
    """Raise ``TrainingDivergenceError`` naming ``what`` and ``epoch`` unless all ``values`` are finite."""
    finite = np.isfinite(values)
    # A scalar's truth value: np.bool_.all() costs about as much as an array reduction.
    if not (finite.all() if finite.ndim else finite):
        raise TrainingDivergenceError(f"non-finite {what} at epoch {epoch}", epoch=epoch)


class _BoundParams:
    """A training run's own parameter buffer, with its layer views bound once.

    It offers what a forward trace and a ``JacobianOperator`` read from an
    ``MlpNetwork`` (``architecture``, ``params``, ``layers()``) without a
    copy or a check per step. ``train`` writes each update into ``params``
    in place, so the views always show the current parameters. It never
    leaves ``train``.
    """

    def __init__(self, architecture: MlpArchitecture, params: np.ndarray):
        self.architecture = architecture
        self.params = params
        self._layers = _layer_views(architecture, params)

    def layers(self) -> tuple:
        return self._layers


# Overflow ends in the typed divergence errors below, not in raw numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def train(network: MlpNetwork, data: TaskDataset, cfg: OptimizerConfig) -> TrainResult:
    """Mini-batch training, bitwise reproducible for a fixed seed.

    Batches come from ``_minibatches`` on ``substream(cfg.seed, "train")``.
    The run steps one parameter buffer that it owns, and one gradient
    buffer, each with its layer views bound once. A step traces its batch
    in one ``JacobianOperator`` over that buffer, checks the loss and its
    output gradient, runs the shared backward pass (``_backward``) into the
    gradient views, and writes the checked update back into the buffer. The
    validated, read-only network is built once, from the final parameters.
    """
    arch = network.architecture
    if data.x.shape[1] != arch.input_dim:
        raise ContractViolationError(
            f"dataset input dim {data.x.shape[1]} does not match network input_dim {arch.input_dim}"
        )
    if data.y.shape[1] != arch.output_dim:
        raise ContractViolationError(
            f"dataset target dim {data.y.shape[1]} does not match output_dim {arch.output_dim}"
        )
    _check_loss(arch, cfg.loss)
    rng = substream(cfg.seed, "train")
    bound = _BoundParams(arch, network.params.copy())
    theta = bound.params
    grad = np.empty_like(theta)
    grad_layers = _layer_views(arch, grad)
    optimizer = make_optimizer(cfg, theta.shape)
    trace = np.empty(cfg.epochs)

    for epoch in range(cfg.epochs):
        for batch_x, batch_y in _minibatches(rng, cfg.batch_size, data.x, data.y):
            jac = JacobianOperator(bound, batch_x)
            loss_val, out_grad = _loss_and_output_grad(jac.outputs, batch_y, cfg.loss)
            _check_finite(loss_val, "training loss", epoch)
            _check_finite(out_grad, "output gradient", epoch)
            _backward(jac, out_grad, grad_layers)
            stepped = optimizer.step(theta, grad)
            _check_finite(stepped, "parameters", epoch)
            np.copyto(theta, stepped)
        epoch_loss, _ = _loss_and_output_grad(forward(bound, data.x), data.y, cfg.loss)
        _check_finite(epoch_loss, "training loss", epoch)
        trace[epoch] = epoch_loss

    return TrainResult(network=network.with_params(theta), loss_trace=trace)
