"""Constraint-dissolving operator, its differentials, and the exact penalty.

The operator  A(X) = 1.5 X - 0.5 X phi(X)^T X  fixes the manifold pointwise
and annihilates the differential of the constraint there, which makes

    h(X) = f(A(X)) + (beta / 2) ||X^T phi(X) - I||^2

an exact penalty: near the manifold its stationary points coincide with the
constrained ones, so any unconstrained solver can minimize it directly.
With C = X^T phi(X) - I its gradient is

    grad h(X) = dA(X)*[grad f(A(X))] + beta dC(X)*[C].

``EvalCache`` holds the base point (X, phi(X), the Gram matrix, C and A(X));
dA, dA* and dC* are each written once as a kernel over it, which the solvers
and the public derivatives share.  ``postprocess`` costs one phi per round.
"""

import numpy as np

from .manifolds import FeasiblePoint, riemannian_gradient


class UnsupportedOperation(RuntimeError):
    """The underlying problem lacks the requested oracle."""


class PostprocessDivergence(RuntimeError):
    """Repeated dissolving failed to reach the feasibility target."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def dissolve(spec, X):
    """Apply the dissolving operator 1.5 X - 0.5 X phi(X)^T X."""
    return EvalCache.at(spec, X).AX


def dC(spec, X, Z):
    """Differential of the constraint map at X in direction Z."""
    return X.T @ spec.phi(Z) + Z.T @ spec.phi(X)


def dC_adjoint(spec, X, T):
    """Adjoint of dC: maps a p x p increment back into the ambient space."""
    return _dC_adjoint(EvalCache.at(spec, X), spec, np.asarray(T, dtype=float))


def dA(spec, X, Z):
    """Differential of the dissolving operator."""
    return _dA(EvalCache.at(spec, X), spec, np.asarray(Z, dtype=float))[0]


def dA_adjoint(spec, X, T):
    """Adjoint of dA."""
    return _dA_adjoint(EvalCache.at(spec, X), spec, np.asarray(T, dtype=float))


def dCA(spec, X, Z):
    """Differential of the composition constraint-after-dissolve."""
    E = dC(spec, X, Z)
    G = EvalCache.at(spec, X).gram
    G2 = G @ G
    return 2.25 * E - 1.5 * (E @ G + G @ E) + 0.25 * (E @ G2 + G @ E @ G + G2 @ E)


class PenaltyFunction:
    """Bundle of manifold, objective, and penalty weight."""

    def __init__(self, spec, problem, beta):
        if not beta > 0:
            raise ValueError(f"penalty weight must be positive, got {beta}")
        self.spec = spec
        self.problem = problem
        self.beta = float(beta)

    def value(self, X, cache=None):
        return penalty_value(self, X, cache)

    def gradient(self, X, cache=None):
        return penalty_gradient(self, X, cache)

    def hessvec(self, X, dX, cache=None):
        return penalty_hessvec(self, X, dX, cache)


class EvalCache:
    """The base point of the penalty algebra: X, phi(X), the Gram matrix
    G = X^T phi(X), the constraint residual C = G - I, A(X), and grad f(A(X)).

    Also meters the work done through it: dense products of n x p / p x p
    shape, phi applications, and objective/gradient oracle calls.
    """

    def __init__(self):
        self.counts = {"matmul": 0, "phi": 0, "grad_f": 0, "f": 0}
        self.X = None
        self.phiX = None
        self.gram = None
        self.C = None
        self.AX = None
        self.gradfA = None

    @classmethod
    def at(cls, spec, X):
        """A fresh cache whose base is X."""
        cache = cls()
        cache.ensure_base(spec, X)
        return cache

    def reset_counts(self):
        for k in self.counts:
            self.counts[k] = 0

    def _mm(self, A, B):
        self.counts["matmul"] += 1
        return A @ B

    def _phi(self, spec, Y):
        self.counts["phi"] += 1
        return spec.phi(Y)

    def ensure_base(self, spec, X):
        X = np.asarray(X, dtype=float)
        if self.X is not None and self.X.shape == X.shape and np.array_equal(self.X, X):
            return
        self.X = X = X.copy()
        self.phiX = self._phi(spec, X)
        self.gram = self._mm(X.T, self.phiX)
        self.C = self.gram - np.eye(spec.p)
        self.AX = 1.5 * X - 0.5 * self._mm(X, self.gram.T)
        self.gradfA = None

    def ensure_grad(self, problem, spec, X):
        self.ensure_base(spec, X)
        if self.gradfA is None:
            self.counts["grad_f"] += 1
            self.gradfA = problem.grad(self.AX)


# Kernels over an ensured base.  psi never appears: phi(X T) = phi(X) psi(T).

def _dA(cache, spec, Z):
    """dA(X)[Z] = 1.5 Z - 0.5 (Z G^T + X (P + Q)), with the phi(Z) and the
    cross-Grams P = phi(Z)^T X, Q = phi(X)^T Z it forms; 4 products, 1 phi."""
    mm, X = cache._mm, cache.X
    phiZ = cache._phi(spec, Z)
    P = mm(phiZ.T, X)
    Q = mm(cache.phiX.T, Z)
    return 1.5 * Z - 0.5 * (mm(Z, cache.gram.T) + mm(X, P + Q)), phiZ, P, Q


def _dC_adjoint(cache, spec, T):
    """dC(X)*[T] = phi(X) T^T + phi(X T); 2 products, 1 phi."""
    return cache._mm(cache.phiX, T.T) + cache._phi(spec, cache._mm(cache.X, T))


def _dA_adjoint(cache, spec, V):
    """dA(X)*[V] = V (1.5 I - 0.5 G) - 0.5 dC(X)*[V^T X]; 4 products, 1 phi."""
    lead = cache._mm(V, 1.5 * np.eye(spec.p) - 0.5 * cache.gram)
    return lead - 0.5 * _dC_adjoint(cache, spec, cache._mm(V.T, cache.X))


def penalty_value(pf, X, cache=None):
    cache = cache if cache is not None else EvalCache()
    cache.ensure_base(pf.spec, X)
    cache.counts["f"] += 1
    return float(pf.problem.f(cache.AX)) + 0.5 * pf.beta * float(np.vdot(cache.C, cache.C))


def penalty_gradient(pf, X, cache=None):
    """dA(X)*[grad f(A(X))] + beta dC(X)*[C]; 8 metered products and 3 phi
    applications."""
    cache = cache if cache is not None else EvalCache()
    cache.ensure_grad(pf.problem, pf.spec, X)
    return (_dA_adjoint(cache, pf.spec, cache.gradfA)
            + pf.beta * _dC_adjoint(cache, pf.spec, cache.C))


def penalty_hessvec(pf, X, dX, cache=None):
    """Action of the penalty Hessian; 11 metered products and 1 phi application.

    Needs the problem's Hessian oracle.  Each p x p cross-Gram is formed
    once (a transpose reuses it), and the n x p terms are grouped by their
    left factor X, phi(X) or phi(dX), so each of those is multiplied once.
    """
    if pf.problem.hessvec is None:
        raise UnsupportedOperation(f"problem {getattr(pf.problem, 'name', '?')} has no Hessian oracle")
    spec = pf.spec
    cache = cache if cache is not None else EvalCache()
    dX = np.asarray(dX, dtype=float)
    cache.ensure_grad(pf.problem, spec, X)
    X, phiX, G, Gf = cache.X, cache.phiX, cache.gram, cache.gradfA
    mm = cache._mm
    DAdX, phiD, P, Q = _dA(cache, spec, dX)
    Hf = pf.problem.hessvec(cache.AX, DAdX)
    R = mm(X.T, Hf)
    lead = mm(Hf, 1.5 * np.eye(spec.p) - 0.5 * G)
    on_phiX = (-0.5 * (spec.gen_sym(R.T) + spec.gen_sym(mm(Gf.T, dX)))
               + pf.beta * (spec.gen_sym(Q.T) + spec.gen_sym(P.T)))
    on_phiD = pf.beta * spec.gen_sym(cache.C) - 0.5 * spec.gen_sym(mm(Gf.T, X))
    return (lead - 0.5 * mm(Gf, spec.gen_sym(P))
            + mm(phiX, on_phiX) + mm(phiD, on_phiD))


def postprocess(spec, X, eps_f=1e-12, max_rounds=50):
    """Drive the constraint residual under eps_f by repeated dissolving.

    Each round is one base point: its residual C and its A(X), the next
    iterate, share one phi(X) and one Gram matrix.  Returns
    (FeasiblePoint, rounds).  Raises PostprocessDivergence (with the
    residual trace attached) when the iterate sits outside the contraction
    basin or the target cannot be met within max_rounds.
    """
    base = EvalCache.at(spec, X)
    c = np.linalg.norm(base.C)
    trace = [c]
    rounds = 0
    while c >= eps_f:
        if rounds >= max_rounds:
            raise PostprocessDivergence(
                f"residual {c:.3e} after {rounds} rounds, target {eps_f:.1e}", trace)
        if not np.isfinite(c) or c > 10.0 * trace[0] + 1.0:
            raise PostprocessDivergence(
                f"residual diverged to {c:.3e} after {rounds} rounds", trace)
        base = EvalCache.at(spec, base.AX)
        c = np.linalg.norm(base.C)
        rounds += 1
        trace.append(c)
    return FeasiblePoint(spec, base.X, tol=max(eps_f, 1e-12)), rounds


def stationarity_report(pf, X, eps_f=1e-12, max_rounds=50):
    """Norms used in result tables: penalty gradient, feasibility, and the
    projected objective gradient at the post-processed point."""
    cache = EvalCache()
    gh = penalty_gradient(pf, X, cache)
    feas = float(np.linalg.norm(cache.C))
    point, rounds = postprocess(pf.spec, X, eps_f=eps_f, max_rounds=max_rounds)
    rg = riemannian_gradient(pf.spec, point, pf.problem.grad(point.X))
    return {
        "grad_h": float(np.linalg.norm(gh)),
        "feas": feas,
        "grad_f_post": float(np.linalg.norm(rg)),
        "feas_post": point.feas,
        "rounds": rounds,
        "point": point,
    }
