"""Krylov primitives against dense linear-algebra oracles."""

import numpy as np
import pytest

from tangentgp.errors import ContractViolationError, NumericBreakdownError
from tangentgp.linalg import (
    CgResult,
    LanczosFactors,
    SymmetricLinearOperator,
    cg_solve,
    lanczos_factorize,
    lowrank_inverse_root,
    slq_logdet,
)


def random_spd(rng, n, shift=None):
    """Well-conditioned random SPD matrix (condition number about 5)."""
    w = rng.standard_normal((n, n))
    a = w @ w.T
    if shift is None:
        shift = float(n)
    return a + shift * np.eye(n)


class TestSymmetricLinearOperator:
    def test_linearity_on_random_vectors(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 7)
        op = SymmetricLinearOperator.from_dense(a, shift=0.5)
        for _ in range(20):
            u = rng.standard_normal(7)
            v = rng.standard_normal(7)
            alpha, beta = rng.standard_normal(2)
            lhs = op.apply(alpha * u + beta * v)
            rhs = alpha * op.apply(u) + beta * op.apply(v)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_symmetry_inner_products(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 9)
        op = SymmetricLinearOperator.from_dense(a)
        for _ in range(20):
            u = rng.standard_normal(9)
            v = rng.standard_normal(9)
            lhs = u @ op.apply(v)
            rhs = v @ op.apply(u)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_psd_after_shift(self):
        # Rank-deficient Gram base; the shift restores definiteness.
        rng = np.random.default_rng(2)
        j = rng.standard_normal((8, 3))
        op = SymmetricLinearOperator(dim=8, base=lambda v: j @ (j.T @ v), shift=0.25)
        for _ in range(20):
            v = rng.standard_normal(8)
            quad = v @ op.apply(v)
            assert quad >= -1e-10 * (v @ v)

    def test_to_dense_roundtrip(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 5)
        op = SymmetricLinearOperator.from_dense(a, shift=2.0)
        np.testing.assert_allclose(op.to_dense(), a + 2.0 * np.eye(5), rtol=1e-12)

    def test_rejects_bad_construction(self):
        with pytest.raises(ContractViolationError):
            SymmetricLinearOperator(dim=0, base=lambda v: v)
        with pytest.raises(ContractViolationError):
            SymmetricLinearOperator(dim=3, base=lambda v: v, shift=-1.0)
        op = SymmetricLinearOperator(dim=3, base=lambda v: v)
        with pytest.raises(ContractViolationError):
            op.apply(np.ones(4))


class TestCgSolve:
    def test_identity_converges_in_one_iteration(self):
        op = SymmetricLinearOperator(dim=3, base=lambda v: v)
        result = cg_solve(op, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(result.x, [1.0, 2.0, 3.0], rtol=1e-12)
        assert result.iterations == 1
        assert result.converged

    def test_diagonal_inversion(self):
        op = SymmetricLinearOperator(dim=2, base=lambda v: np.array([2.0, 4.0]) * v)
        result = cg_solve(op, np.array([2.0, 4.0]))
        np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=1e-10)

    def test_zero_rhs_returns_zero_immediately(self):
        op = SymmetricLinearOperator(dim=4, base=lambda v: 3.0 * v)
        result = cg_solve(op, np.zeros(4))
        np.testing.assert_allclose(result.x, np.zeros(4))
        assert result.iterations == 0
        assert result.converged

    def test_matches_dense_solve_on_seeded_spd(self):
        rng = np.random.default_rng(42)
        a = random_spd(rng, 8)
        b = rng.standard_normal(8)
        expected = np.linalg.solve(a, b)
        result = cg_solve(SymmetricLinearOperator.from_dense(a), b)
        assert result.converged
        np.testing.assert_allclose(result.x, expected, rtol=1e-8)

    def test_converges_within_dimension_iterations(self):
        rng = np.random.default_rng(7)
        for dim in range(2, 33):
            a = random_spd(rng, dim)
            b = rng.standard_normal(dim)
            result = cg_solve(SymmetricLinearOperator.from_dense(a), b, tol=1e-8)
            assert result.converged, f"dim {dim} did not converge"
            assert result.iterations <= dim, f"dim {dim} took {result.iterations} iterations"

    def test_max_iter_returns_best_iterate(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 16, shift=0.01)
        b = rng.standard_normal(16)
        result = cg_solve(SymmetricLinearOperator.from_dense(a), b, max_iter=2)
        assert not result.converged
        assert result.iterations == 2
        assert result.residual_norm <= np.linalg.norm(b)

    def test_dimension_mismatch_raises(self):
        op = SymmetricLinearOperator(dim=3, base=lambda v: v)
        with pytest.raises(ContractViolationError):
            cg_solve(op, np.ones(5))

    def test_non_finite_operator_names_iteration(self):
        op = SymmetricLinearOperator(dim=2, base=lambda v: np.array([np.nan, 1.0]))
        with pytest.raises(NumericBreakdownError, match="iteration 1"):
            cg_solve(op, np.ones(2))


class TestLanczosFactorize:
    def test_identity_single_step(self):
        op = SymmetricLinearOperator(dim=4, base=lambda v: v)
        rng = np.random.default_rng(0)
        factors = lanczos_factorize(op, rng.standard_normal(4), rank=1)
        np.testing.assert_allclose(factors.t, [[1.0]], atol=1e-12)

    def test_recovers_diagonal_spectrum(self):
        op = SymmetricLinearOperator(dim=3, base=lambda v: np.array([1.0, 2.0, 3.0]) * v)
        factors = lanczos_factorize(op, np.ones(3), rank=3)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(factors.t)), [1.0, 2.0, 3.0], atol=1e-10)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 10)
        op = SymmetricLinearOperator.from_dense(a)
        factors = lanczos_factorize(op, rng.standard_normal(10), rank=10)
        recon = factors.q @ factors.t @ factors.q.T
        rel = np.linalg.norm(recon - a) / np.linalg.norm(a)
        assert rel <= 1e-6

    def test_basis_orthonormal_to_working_precision(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 30)
        factors = lanczos_factorize(SymmetricLinearOperator.from_dense(a), rng.standard_normal(30), rank=30)
        gram = factors.q.T @ factors.q
        assert np.max(np.abs(gram - np.eye(30))) <= 1e-8

    def test_t_exactly_tridiagonal(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 12)
        factors = lanczos_factorize(SymmetricLinearOperator.from_dense(a), rng.standard_normal(12), rank=8)
        mask = np.abs(np.arange(8)[:, None] - np.arange(8)[None, :]) > 1
        assert np.all(factors.t[mask] == 0.0)

    def test_ritz_values_within_spectrum(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 20)
        evals = np.linalg.eigvalsh(a)
        factors = lanczos_factorize(SymmetricLinearOperator.from_dense(a), rng.standard_normal(20), rank=9)
        ritz = np.linalg.eigvalsh(factors.t)
        assert np.all(ritz >= evals.min() - 1e-8)
        assert np.all(ritz <= evals.max() + 1e-8)

    def test_breakdown_on_low_rank_operator_records_achieved_rank(self):
        # Rank-2 Gram operator: the Krylov space of a generic probe has
        # dimension 3 (two nonzero eigendirections plus the nullspace
        # component of the probe itself).
        rng = np.random.default_rng(10)
        j = rng.standard_normal((9, 2))
        op = SymmetricLinearOperator(dim=9, base=lambda v: j @ (j.T @ v))
        factors = lanczos_factorize(op, rng.standard_normal(9), rank=7)
        assert factors.exhausted
        assert factors.rank == 3
        a = op.to_dense()
        np.testing.assert_allclose(a @ factors.q, factors.q @ factors.t, atol=1e-8)

    def test_zero_probe_rejected(self):
        op = SymmetricLinearOperator(dim=3, base=lambda v: v)
        with pytest.raises(ContractViolationError):
            lanczos_factorize(op, np.zeros(3), rank=2)

    def test_rank_beyond_dimension_rejected(self):
        op = SymmetricLinearOperator(dim=3, base=lambda v: v)
        with pytest.raises(ContractViolationError):
            lanczos_factorize(op, np.ones(3), rank=4)


class TestLowrankInverseRoot:
    def test_identity(self):
        op = SymmetricLinearOperator(dim=3, base=lambda v: v)
        factors = lanczos_factorize(op, np.array([1.0, 1.0, 1.0]), rank=1)
        r = lowrank_inverse_root(factors)
        # Identity has a one-dimensional Krylov space; R R' is the
        # projector onto the probe direction with unit inverse eigenvalue.
        np.testing.assert_allclose(r @ r.T, np.full((3, 3), 1.0 / 3.0), atol=1e-12)

    def test_diagonal_closed_form(self):
        op = SymmetricLinearOperator(dim=2, base=lambda v: np.array([4.0, 16.0]) * v)
        factors = lanczos_factorize(op, np.array([1.0, 1.0]), rank=2)
        r = lowrank_inverse_root(factors)
        np.testing.assert_allclose(r @ r.T, np.diag([0.25, 0.0625]), atol=1e-10)

    def test_full_rank_matches_dense_inverse(self):
        rng = np.random.default_rng(14)
        a = random_spd(rng, 8)
        factors = lanczos_factorize(SymmetricLinearOperator.from_dense(a), rng.standard_normal(8), rank=8)
        r = lowrank_inverse_root(factors)
        a_inv = np.linalg.inv(a)
        rel = np.linalg.norm(r @ r.T - a_inv) / np.linalg.norm(a_inv)
        assert rel <= 1e-5

    def test_near_singular_t_suggests_larger_shift(self):
        factors = LanczosFactors(q=np.eye(2)[:, :1], t=np.array([[1e-15]]), rank=1)
        with pytest.raises(NumericBreakdownError, match="shift"):
            lowrank_inverse_root(factors)


class TestSlqLogdet:
    def test_identity_logdet_is_zero(self):
        op = SymmetricLinearOperator(dim=6, base=lambda v: v)
        rng = np.random.default_rng(15)
        assert abs(slq_logdet(op, rank=3, n_probes=4, rng=rng)) <= 1e-10

    def test_estimates_dense_logdet(self):
        rng = np.random.default_rng(16)
        a = random_spd(rng, 12, shift=24.0)
        op = SymmetricLinearOperator.from_dense(a)
        estimate = slq_logdet(op, rank=12, n_probes=200, rng=rng)
        _, exact = np.linalg.slogdet(a)
        assert abs(estimate - exact) <= 0.05 * abs(exact)

    def test_indefinite_operator_rejected(self):
        op = SymmetricLinearOperator(dim=2, base=lambda v: np.array([-1.0, 2.0]) * v)
        rng = np.random.default_rng(17)
        with pytest.raises(NumericBreakdownError):
            slq_logdet(op, rank=2, n_probes=4, rng=rng)
