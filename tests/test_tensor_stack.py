"""Tensor frames stored as (l, n, p) face stacks against the block-unfolded route.

A stack of l faces and its ln x lp block-diagonal unfolding are the same
point: on Stiefel(ln, lp) every product of block-diagonal operands stays
block-diagonal, so the penalty algebra, the normal-space solve and the
tensor-JFD oracles must agree face by face.
"""

import numpy as np
import pytest

import orthopt as op
from orthopt.manifolds import theta_lstsq
from orthopt.penalty import penalty_gradient, penalty_hessvec, penalty_value
from orthopt.problems import Problem

N, P, L = 20, 3, 8
RTOL = 1e-13


def unfold(S):
    """(l, r, c) face stack -> lr x lc block-diagonal matrix."""
    l, r, c = S.shape
    Y = np.zeros((l * r, l * c))
    for k in range(l):
        Y[k * r:(k + 1) * r, k * c:(k + 1) * c] = S[k]
    return Y


def fold(Y, rows, cols):
    """Inverse of unfold; fails on a matrix with mass off the diagonal blocks."""
    S = np.stack([Y[k * rows:(k + 1) * rows, k * cols:(k + 1) * cols] for k in range(L)])
    off = np.linalg.norm(Y - unfold(S))
    assert off <= 1e-12 * (1.0 + np.linalg.norm(Y)), f"off-diagonal block mass {off:.2e}"
    return S


def assert_rel(a, b):
    assert np.linalg.norm(a - b) <= RTOL * np.linalg.norm(b)


def elementwise_problem(spec, a):
    """0.5 ||X - a||^2 + 0.25 sum x^4: zero off the blocks when a is block-diagonal."""
    def f(X, store=None):
        return 0.5 * float(np.vdot(X - a, X - a)) + 0.25 * float(np.sum(X ** 4))

    def grad(X, store=None):
        return X - a + X ** 3

    def hessvec(X, V, store=None):
        return V + 3.0 * X ** 2 * V

    return Problem(spec, f, grad, hessvec, name="elementwise")


@pytest.fixture(scope="module")
def routes():
    stack, flat = op.tensor_stiefel(N, P, L), op.stiefel(L * N, L * P)
    rng = np.random.default_rng(0)
    a = 0.3 * rng.standard_normal((L, N, P))
    X = stack.random_feasible(1).X + 0.05 * rng.standard_normal((L, N, P))
    V = rng.standard_normal((L, N, P))
    pf_stack = op.PenaltyFunction(stack, elementwise_problem(stack, a), 0.7)
    pf_flat = op.PenaltyFunction(flat, elementwise_problem(flat, unfold(a)), 0.7)
    return pf_stack, pf_flat, X, V


def test_penalty_value_matches_unfolded(routes):
    pf_stack, pf_flat, X, _ = routes
    h_stack, h_flat = penalty_value(pf_stack, X), penalty_value(pf_flat, unfold(X))
    assert abs(h_stack - h_flat) <= RTOL * abs(h_flat)


def test_penalty_gradient_matches_unfolded(routes):
    pf_stack, pf_flat, X, _ = routes
    assert_rel(penalty_gradient(pf_stack, X), fold(penalty_gradient(pf_flat, unfold(X)), N, P))


def test_penalty_hessvec_matches_unfolded(routes):
    pf_stack, pf_flat, X, V = routes
    assert_rel(penalty_hessvec(pf_stack, X, V),
               fold(penalty_hessvec(pf_flat, unfold(X), unfold(V)), N, P))


def test_theta_matches_unfolded(routes):
    pf_stack, pf_flat, _, V = routes
    pt = pf_stack.spec.random_feasible(2)
    S = theta_lstsq(pf_stack.spec, pt, V)
    S_flat = theta_lstsq(pf_flat.spec, unfold(pt.X), unfold(V))
    assert S.shape == (L, P, P)
    assert_rel(S, fold(S_flat, P, P))


def test_tensor_jfd_oracles_match_block_diagonal_evaluation():
    prob = op.build_tensor_jfd(N, P, L, n_samples=5, gamma=0.5, seed=1)
    blocks = [unfold(D) for D in prob.sample_mats]

    def offdiag(M):
        return M - np.diag(np.diag(M))

    def f(Y):
        return sum(float(np.vdot(offdiag(Y.T @ D @ Y), offdiag(Y.T @ D @ Y))) for D in blocks)

    def grad(Y):
        out = np.zeros_like(Y)
        for D in blocks:
            O = offdiag(Y.T @ D @ Y)
            out += 2.0 * (D.T @ Y @ O + D @ Y @ O.T)
        return out

    def hessvec(Y, W):
        out = np.zeros_like(Y)
        for D in blocks:
            O = offdiag(Y.T @ D @ Y)
            Od = offdiag(W.T @ D @ Y + Y.T @ D @ W)
            out += 2.0 * (D.T @ W @ O + D.T @ Y @ Od + D @ W @ O.T + D @ Y @ Od.T)
        return out

    rng = np.random.default_rng(3)
    X = prob.spec.random_feasible(4).X + 0.1 * rng.standard_normal((L, N, P))
    V = rng.standard_normal((L, N, P))
    Y, W = unfold(X), unfold(V)
    assert prob.sample_mats.shape == (5, L, N, N)
    assert abs(prob.f(X) - f(Y)) <= RTOL * f(Y)
    assert_rel(prob.grad(X), fold(grad(Y), N, P))
    assert_rel(prob.hessvec(X, V), fold(hessvec(Y, W), N, P))
