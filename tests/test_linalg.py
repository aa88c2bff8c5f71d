import numpy as np
import pytest

from orthopt.linalg import (
    NoUniqueSolutionError,
    lyapunov_apply,
    lyapunov_factor,
    lyapunov_solve,
    skew,
    sym,
)


def test_sym_skew_split():
    M = np.random.default_rng(0).standard_normal((4, 4))
    np.testing.assert_allclose(sym(M) + skew(M), M)
    np.testing.assert_allclose(sym(M), sym(M).T)
    np.testing.assert_allclose(skew(M), -skew(M).T)


def test_lyapunov_identity_coefficients():
    Q = np.random.default_rng(1).standard_normal((4, 4))
    S = lyapunov_solve(np.eye(4), Q)
    np.testing.assert_allclose(S, Q / 2.0)


def test_lyapunov_diagonal_formula():
    w = np.array([1.0, 2.0, 3.0])
    S = lyapunov_solve(np.diag(w), np.ones((3, 3)))
    np.testing.assert_allclose(S, 1.0 / (w[:, None] + w[None, :]))


def test_lyapunov_residual_and_eigenbasis_oracle():
    rng = np.random.default_rng(2)
    K = sym(rng.standard_normal((5, 5))) + 6 * np.eye(5)
    Q = rng.standard_normal((5, 5))
    S = lyapunov_solve(K, Q)
    resid = np.linalg.norm(K @ S + S @ K - Q)
    assert resid <= 2e-10 * np.linalg.norm(K) * np.linalg.norm(S)
    # independent route: solve entrywise in the eigenbasis of K
    w, V = np.linalg.eigh(K)
    W = (V.T @ Q @ V) / (w[:, None] + w[None, :])
    np.testing.assert_allclose(S, V @ W @ V.T, atol=1e-10)


def test_lyapunov_symmetric_solution_for_symmetric_data():
    rng = np.random.default_rng(3)
    K = sym(rng.standard_normal((4, 4))) + 5 * np.eye(4)
    Q = sym(rng.standard_normal((4, 4)))
    S = lyapunov_solve(K, Q)
    np.testing.assert_allclose(S, S.T, atol=1e-12)


def test_lyapunov_singular_system_raises():
    # the off-diagonal modes of K = diag(1, -1) have w_i + w_j = 0
    with pytest.raises(NoUniqueSolutionError):
        lyapunov_solve(np.diag([1.0, -1.0]), np.ones((2, 2)))


def test_lyapunov_shape_mismatch():
    with pytest.raises(ValueError):
        lyapunov_solve(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        lyapunov_factor(np.ones((2, 3)))


def test_lyapunov_rejects_nonsymmetric_coefficients():
    K = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        lyapunov_solve(K, np.eye(2))


def test_lyapunov_stack_solves_each_face():
    rng = np.random.default_rng(4)
    K = sym(rng.standard_normal((3, 4, 4))) + 5 * np.eye(4)
    Q = rng.standard_normal((3, 4, 4))
    S = lyapunov_solve(K, Q)
    for k in range(3):
        np.testing.assert_allclose(S[k], lyapunov_solve(K[k], Q[k]), atol=1e-14)


def test_lyapunov_stack_flags_singular_modes_per_face():
    # a face at a scale far below the others still has a unique solution
    K = np.stack([np.eye(2), 1e-20 * np.eye(2)])
    S = lyapunov_solve(K, np.stack([np.eye(2), 1e-20 * np.eye(2)]))
    np.testing.assert_allclose(S, 0.5 * np.stack([np.eye(2), np.eye(2)]), rtol=1e-14)


@pytest.mark.parametrize("shape", [(5, 5), (3, 4, 4)], ids=["matrix", "stack"])
def test_lyapunov_factor_then_apply_is_the_eigenbasis_formula_bit_for_bit(shape):
    # one factor serves many right-hand sides, each to the bits of a fresh solve
    rng = np.random.default_rng(5)
    K = sym(rng.standard_normal(shape)) + 6 * np.eye(shape[-1])
    factor = lyapunov_factor(K)
    w, V = np.linalg.eigh(K)
    for Q in rng.standard_normal((3,) + shape):
        expected = V @ ((V.mT @ Q @ V) / (w[..., :, None] + w[..., None, :])) @ V.mT
        assert np.array_equal(lyapunov_solve(K, Q), expected)
        assert np.array_equal(lyapunov_apply(factor, Q), expected)


def test_lyapunov_apply_raises_on_each_singular_solve():
    factor = lyapunov_factor(np.diag([1.0, -1.0]))
    for _ in range(2):
        with pytest.raises(NoUniqueSolutionError):
            lyapunov_apply(factor, np.ones((2, 2)))
