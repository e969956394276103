"""Dense reference answers for the benchmark's output checks.

Written in plain numpy from the checkpoint file format, independent of the
library's matrix-free code: an explicit per-datum Jacobian and the
closed-form GP posterior over it.
"""

from __future__ import annotations

import json

import numpy as np

ACTIVATIONS = {
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "identity": (lambda z: z, np.ones_like),
}


def load_network(path):
    """(architecture dict, flat parameters) from a CLI checkpoint."""
    doc = json.loads(open(path).read())
    return doc["architecture"], np.asarray(doc["params"], dtype=np.float64)


def _layers(arch, params):
    if arch["heteroscedastic"]:
        raise ValueError("the oracle covers homoscedastic networks only")
    dims = [arch["input_dim"], *arch["hidden_widths"], arch["output_dim"]]
    layers, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = params[offset : offset + fan_in * fan_out].reshape(fan_out, fan_in)
        offset += fan_in * fan_out
        layers.append((w, params[offset : offset + fan_out]))
        offset += fan_out
    return layers


def forward_and_jacobian(arch, params, x):
    """Outputs (n, o) and the Jacobian (n*o, p), row i*o + c per datum and channel."""
    act, slope = ACTIVATIONS[arch["activation"]]
    layers = _layers(arch, params)
    inputs, slopes, h = [], [], np.asarray(x, dtype=np.float64)
    for idx, (w, b) in enumerate(layers):
        inputs.append(h)
        z = h @ w.T + b
        if idx < len(layers) - 1:
            slopes.append(slope(z))
            h = act(z)
        else:
            h = z
    n, o = h.shape
    jac = np.empty((n, o, params.size))
    for c in range(o):
        delta = np.zeros((n, o))
        delta[:, c] = 1.0
        blocks = []
        for idx in range(len(layers) - 1, -1, -1):
            blocks.append(delta)
            blocks.append(np.einsum("ni,nj->nij", delta, inputs[idx]).reshape(n, -1))
            if idx > 0:
                delta = (delta @ layers[idx][0]) * slopes[idx - 1]
        jac[:, c, :] = np.concatenate(blocks[::-1], axis=1)
    return h, jac.reshape(n * o, params.size)


def gp_posterior(jac_context, residual, jac_query, noise_variance):
    """Closed-form posterior mean and latent variance of the tangent-kernel GP."""
    gram = jac_context @ jac_context.T
    gram[np.diag_indices_from(gram)] += noise_variance
    cross = jac_context @ jac_query.T
    alpha = np.linalg.solve(gram, residual)
    mean = cross.T @ alpha
    prior = np.einsum("ij,ij->i", jac_query, jac_query)
    var = prior - np.einsum("ij,ij->j", cross, np.linalg.solve(gram, cross))
    return mean, var, prior
