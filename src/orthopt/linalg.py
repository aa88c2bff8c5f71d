"""Small dense linear-algebra kernels: sym/skew parts and the one-matrix
Lyapunov equation K S + S K = Q of the normal-space solve, factored once
(``lyapunov_factor``) and applied per right-hand side (``lyapunov_apply``)."""

from typing import NamedTuple

import numpy as np


class NoUniqueSolutionError(np.linalg.LinAlgError):
    """The Lyapunov system is singular; carries the minimum-norm solution."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


def sym(M):
    return 0.5 * (M + M.mT)


def skew(M):
    return 0.5 * (M - M.mT)


def lyapunov_solve(K, Q):
    """Solve K S + S K = Q for symmetric K in its eigenbasis.

    With K = V diag(w) V^T the solution is
    S = V [(V^T Q V) / (w_i + w_j)] V^T, at O(p^3).  Stacks of p x p
    systems of one shape are solved face by face.  Modes with w_i + w_j at
    the rounding level of their face make the system singular:
    NoUniqueSolutionError is raised carrying the minimum-norm least-squares
    solution, in which those modes are zero.  A non-symmetric K, or a Q of
    another shape, raises ValueError.  It is ``lyapunov_factor`` followed
    by ``lyapunov_apply``.
    """
    K = np.asarray(K, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if Q.shape != K.shape:
        raise ValueError(f"incompatible shapes {K.shape}, {Q.shape}")
    return lyapunov_apply(lyapunov_factor(K), Q)


class LyapunovFactor(NamedTuple):
    """Everything of K S + S K = Q that does not depend on Q."""

    V: np.ndarray           # eigenbasis of K
    denom: np.ndarray       # w_i + w_j
    singular: np.ndarray    # modes whose w_i + w_j is at the rounding level


def lyapunov_factor(K):
    """Factor K S + S K = Q for symmetric K with one eigendecomposition, at
    O(p^3).  A K that is not square or not symmetric raises ValueError."""
    K = np.asarray(K, dtype=float)
    p = K.shape[-1]
    if K.ndim < 2 or K.shape[-2] != p:
        raise ValueError(f"coefficient matrix must be square, got shape {K.shape}")
    if np.linalg.norm(K - K.mT) > 1e-12 * np.linalg.norm(K):
        raise ValueError("coefficient matrix must be symmetric")
    w, V = np.linalg.eigh(K)
    denom = w[..., :, None] + w[..., None, :]
    scale = 2.0 * np.abs(w).max(axis=-1)
    singular = np.abs(denom) <= p * np.finfo(float).eps * scale[..., None, None]
    return LyapunovFactor(V, denom, singular)


def lyapunov_apply(factor, Q):
    """The solution S of the factored system for one right-hand side Q, at
    O(p^3) with no decomposition; raises NoUniqueSolutionError as
    ``lyapunov_solve`` does."""
    V, denom, singular = factor
    C = np.divide(V.mT @ Q @ V, denom, out=np.zeros(denom.shape), where=~singular)
    S = V @ C @ V.mT
    if singular.any():
        raise NoUniqueSolutionError(
            f"{int(singular.sum())} of {singular.size} modes have w_i + w_j = 0", solution=S)
    return S
