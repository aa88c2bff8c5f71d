"""Small dense linear-algebra kernels."""

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


def _eigh_symmetric(M):
    if np.linalg.norm(M - M.mT) > 1e-12 * np.linalg.norm(M):
        raise ValueError("coefficient matrix must be symmetric")
    return np.linalg.eigh(M)


def lyapunov_solve(A, B, Q):
    """Solve A S + S B = Q for symmetric A and B in their eigenbases.

    With A = Va diag(a) Va^T and B = Vb diag(b) Vb^T the solution is
    S = Va [(Va^T Q Vb) / (a_i + b_j)] Vb^T, at O(p^3).  Stacks of p x p
    systems of one shape are solved face by face.  Modes with a_i + b_j at
    the rounding level of their face make the system singular:
    NoUniqueSolutionError is raised carrying the minimum-norm least-squares
    solution, in which those modes are zero.  Non-symmetric A or B raises
    ValueError.  It is ``lyapunov_factor`` followed by ``lyapunov_apply``.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if Q.shape != A.shape:
        raise ValueError(f"incompatible shapes {A.shape}, {np.shape(B)}, {Q.shape}")
    return lyapunov_apply(lyapunov_factor(A, B), Q)


class LyapunovFactor(NamedTuple):
    """Everything of A S + S B = Q that does not depend on Q."""

    Va: np.ndarray          # eigenbasis of A
    Vb: np.ndarray          # eigenbasis of B
    denom: np.ndarray       # a_i + b_j
    singular: np.ndarray    # modes whose a_i + b_j is at the rounding level


def lyapunov_factor(A, B):
    """Factor A S + S B = Q for symmetric A and B at O(p^3), with one
    eigendecomposition when B is A.

    Non-symmetric A or B raises ValueError, mismatched shapes ValueError.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    p = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != p or B.shape != A.shape:
        raise ValueError(f"incompatible shapes {A.shape}, {B.shape}")
    wa, Va = _eigh_symmetric(A)
    wb, Vb = (wa, Va) if B is A else _eigh_symmetric(B)
    denom = wa[..., :, None] + wb[..., None, :]
    scale = np.abs(wa).max(axis=-1) + np.abs(wb).max(axis=-1)
    singular = np.abs(denom) <= p * np.finfo(float).eps * scale[..., None, None]
    return LyapunovFactor(Va, Vb, denom, singular)


def lyapunov_apply(factor, Q):
    """The solution S of the factored system for one right-hand side Q, at
    O(p^3) with no decomposition; raises NoUniqueSolutionError as
    ``lyapunov_solve`` does."""
    Va, Vb, denom, singular = factor
    C = np.divide(Va.mT @ Q @ Vb, denom, out=np.zeros(denom.shape), where=~singular)
    S = Va @ C @ Vb.mT
    if singular.any():
        raise NoUniqueSolutionError(
            f"{int(singular.sum())} of {singular.size} modes have a_i + b_j = 0", solution=S)
    return S
