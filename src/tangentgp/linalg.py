"""Matrix-free Krylov machinery over symmetric PSD linear operators.

The operators handled here stand for shifted Gram matrices of network
Jacobians (J'J + s*I or JJ' + s*I), which are only available through
matrix-vector products. Everything is double precision; the downstream
error targets leave no headroom for f32 accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolationError, NumericBreakdownError

DEFAULT_TOL = 1e-8
BREAKDOWN_NORM = 1e-12


@dataclass(frozen=True)
class SymmetricLinearOperator:
    """A symmetric PSD operator A = base + shift * I, applied matrix-free.

    Parameters
    ----------
    dim : int
        Dimension of the (square) operator.
    base : callable
        Maps a length-``dim`` vector to a length-``dim`` vector. Must be
        linear and symmetric; positive semidefiniteness is required only
        after the shift is added.
    shift : float, optional
        Nonnegative diagonal shift, which ``apply`` adds to ``base``'s
        product.
    """

    dim: int
    base: Callable[[np.ndarray], np.ndarray]
    shift: float = 0.0

    def __post_init__(self):
        if self.dim <= 0:
            raise ContractViolationError(f"operator dimension must be positive, got {self.dim}")
        if self.shift < 0:
            raise ContractViolationError(f"diagonal shift must be nonnegative, got {self.shift}")

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ContractViolationError(
                f"operator of dimension {self.dim} applied to vector of shape {v.shape}"
            )
        out = np.asarray(self.base(v), dtype=np.float64)
        if self.shift != 0.0:
            out = out + self.shift * v
        return out

    @classmethod
    def from_dense(cls, a: np.ndarray, shift: float = 0.0) -> "SymmetricLinearOperator":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractViolationError(f"expected a square matrix, got shape {a.shape}")
        return cls(dim=a.shape[0], base=lambda v: a @ v, shift=shift)

    def to_dense(self) -> np.ndarray:
        """Assemble the shifted operator by applying it to identity columns."""
        eye = np.eye(self.dim)
        return np.column_stack([self.apply(eye[:, j]) for j in range(self.dim)])


@dataclass(frozen=True)
class CgResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def cg_solve(
    op: SymmetricLinearOperator,
    b: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> CgResult:
    """Solve A x = b by conjugate gradients.

    Stops when ``||A x - b|| <= tol * ||b||`` (verified against a freshly
    computed residual, not just the recurrence), or returns the best
    iterate seen once ``max_iter`` is exhausted.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.dim,):
        raise ContractViolationError(
            f"right-hand side of shape {b.shape} does not match operator dimension {op.dim}"
        )
    if tol <= 0:
        raise ContractViolationError(f"tol must be positive, got {tol}")
    if max_iter is None:
        max_iter = max(1000, 2 * op.dim)

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CgResult(x=np.zeros(op.dim), residual_norm=0.0, iterations=0, converged=True)

    x = np.zeros(op.dim)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    best_x = x.copy()
    best_res = b_norm

    for k in range(1, max_iter + 1):
        ap = op.apply(p)
        if not np.all(np.isfinite(ap)):
            raise NumericBreakdownError(f"non-finite operator output at CG iteration {k}")
        curvature = float(p @ ap)
        if curvature <= 0.0 or not np.isfinite(curvature):
            raise NumericBreakdownError(
                f"nonpositive curvature {curvature:.3e} at CG iteration {k}; operator is not positive definite"
            )
        alpha = rr / curvature
        x = x + alpha * p
        r = r - alpha * ap
        res = float(np.linalg.norm(r))
        if not np.isfinite(res):
            raise NumericBreakdownError(f"non-finite residual at CG iteration {k}")
        if res < best_res:
            best_res = res
            best_x = x.copy()
        if res <= tol * b_norm:
            # The recurrence residual can drift from the true one; only
            # accept convergence when the explicit residual agrees.
            r_true = b - op.apply(x)
            res_true = float(np.linalg.norm(r_true))
            if res_true <= tol * b_norm:
                return CgResult(x=x, residual_norm=res_true, iterations=k, converged=True)
            r = r_true
            res = res_true
        rr_new = float(r @ r)
        beta = rr_new / rr
        rr = rr_new
        p = r + beta * p

    return CgResult(x=best_x, residual_norm=best_res, iterations=max_iter, converged=False)


@dataclass(frozen=True)
class LanczosFactors:
    """Partial tridiagonalization A Q ~= Q T with orthonormal Q.

    ``rank`` is the achieved rank; it is smaller than the requested rank
    when the Krylov space of the probe was exhausted, in which case
    ``exhausted`` is set and Q spans an exactly invariant subspace (up to
    the breakdown cutoff).
    """

    q: np.ndarray
    t: np.ndarray
    rank: int
    exhausted: bool = False


def lanczos_factorize(op: SymmetricLinearOperator, probe: np.ndarray, rank: int) -> LanczosFactors:
    """Run Lanczos with full reorthogonalization from a probe vector.

    Reorthogonalizing against the whole basis (twice per step) costs
    O(dim * rank^2), which is negligible at the ranks used here and keeps
    ||Q'Q - I|| at working precision, so T carries no spurious eigenvalue
    copies.
    """
    probe = np.asarray(probe, dtype=np.float64)
    if probe.shape != (op.dim,):
        raise ContractViolationError(
            f"probe of shape {probe.shape} does not match operator dimension {op.dim}"
        )
    probe_norm = float(np.linalg.norm(probe))
    if probe_norm == 0.0:
        raise ContractViolationError("Lanczos probe must be nonzero")
    if not 1 <= rank <= op.dim:
        raise ContractViolationError(f"rank must lie in [1, {op.dim}], got {rank}")

    q = np.zeros((op.dim, rank))
    q[:, 0] = probe / probe_norm
    alphas = np.zeros(rank)
    betas = np.zeros(max(rank - 1, 0))
    achieved = rank
    exhausted = False

    for j in range(rank):
        w = op.apply(q[:, j])
        if not np.all(np.isfinite(w)):
            raise NumericBreakdownError(f"non-finite operator output at Lanczos step {j + 1}")
        alphas[j] = float(q[:, j] @ w)
        w = w - alphas[j] * q[:, j]
        if j > 0:
            w = w - betas[j - 1] * q[:, j - 1]
        for _ in range(2):
            w = w - q[:, : j + 1] @ (q[:, : j + 1].T @ w)
        if j == rank - 1:
            break
        beta = float(np.linalg.norm(w))
        if beta < BREAKDOWN_NORM:
            achieved = j + 1
            exhausted = True
            break
        betas[j] = beta
        q[:, j + 1] = w / beta

    t = np.diag(alphas[:achieved])
    if achieved > 1:
        off = betas[: achieved - 1]
        t[np.arange(achieved - 1), np.arange(1, achieved)] = off
        t[np.arange(1, achieved), np.arange(achieved - 1)] = off
    return LanczosFactors(q=q[:, :achieved], t=t, rank=achieved, exhausted=exhausted)


def tridiagonal_eigh(factors: LanczosFactors):
    """Eigenvalues and eigenvectors of T, which must be positive definite."""
    evals, evecs = np.linalg.eigh(factors.t)
    if np.any(evals <= 1e-14):
        raise NumericBreakdownError(
            f"tridiagonal factor has eigenvalue {evals.min():.3e} <= 1e-14; "
            "increase the diagonal shift (larger noise variance) and refactorize"
        )
    return evals, evecs


def lowrank_inverse_root(factors: LanczosFactors) -> np.ndarray:
    """Return R = Q T^(-1/2) so that R R' approximates A^-1.

    Uses the symmetric inverse square root of T via its eigendecomposition.
    """
    evals, evecs = tridiagonal_eigh(factors)
    inv_root = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    return factors.q @ inv_root


def slq_logdet(
    op: SymmetricLinearOperator,
    rank: int,
    n_probes: int,
    rng: np.random.Generator,
) -> float:
    """Stochastic Lanczos quadrature estimate of log det(A).

    Averages Gauss quadrature rules for u' log(A) u over Rademacher
    probes u; each rule comes from the eigendecomposition of the probe's
    tridiagonal factor.
    """
    if n_probes <= 0:
        raise ContractViolationError(f"n_probes must be positive, got {n_probes}")
    total = 0.0
    for _ in range(n_probes):
        z = rng.choice(np.array([-1.0, 1.0]), size=op.dim)
        factors = lanczos_factorize(op, z, min(rank, op.dim))
        evals, evecs = np.linalg.eigh(factors.t)
        if np.any(evals <= 0.0):
            raise NumericBreakdownError(
                f"quadrature node {evals.min():.3e} <= 0; operator is not positive definite"
            )
        weights = evecs[0, :] ** 2
        total += float(z @ z) * float(weights @ np.log(evals))
    return total / n_probes
