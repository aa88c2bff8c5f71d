"""Constraint-dissolving operator, its differentials, and the exact penalty.

The operator  A(X) = 1.5 X - 0.5 X phi(X)^T X  fixes the manifold pointwise
and annihilates the differential of the constraint there, which makes

    h(X) = f(A(X)) + (beta / 2) ||X^T phi(X) - I||^2

an exact penalty: near the manifold its stationary points coincide with the
constrained ones, so any unconstrained solver can minimize it directly.
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
    X = np.asarray(X, dtype=float)
    G = X.T @ spec.phi(X)
    return 1.5 * X - 0.5 * (X @ G.T)


def dC(spec, X, Z):
    """Differential of the constraint map at X in direction Z."""
    return X.T @ spec.phi(Z) + Z.T @ spec.phi(X)


def dC_adjoint(spec, X, T):
    """Adjoint of dC: maps a p x p increment back into the ambient space."""
    return spec.phi(X) @ spec.gen_sym(T)


def dA(spec, X, Z):
    """Differential of the dissolving operator."""
    phiX = spec.phi(X)
    phiZ = spec.phi(Z)
    return 1.5 * Z - 0.5 * (Z @ (phiX.T @ X) + X @ (phiZ.T @ X) + X @ (phiX.T @ Z))


def dA_adjoint(spec, X, T):
    """Adjoint of dA."""
    phiX = spec.phi(X)
    G = X.T @ phiX
    lead = T @ (1.5 * np.eye(spec.p) - 0.5 * G)
    return lead - 0.5 * phiX @ (X.T @ T + spec.psi(T.T @ X))


def dCA(spec, X, Z):
    """Differential of the composition constraint-after-dissolve."""
    E = dC(spec, X, Z)
    G = X.T @ spec.phi(X)
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

    def value_and_grad(self, X, cache=None):
        cache = cache if cache is not None else EvalCache()
        return penalty_value(self, X, cache), penalty_gradient(self, X, cache)

    def hessvec(self, X, dX, cache=None):
        return penalty_hessvec(self, X, dX, cache)


class EvalCache:
    """Per-worker cache of phi(X), the Gram matrix, A(X), and grad f(A(X)).

    Also meters the work done through it: dense products of n x p / p x p
    shape, phi applications, and objective/gradient oracle calls.
    """

    def __init__(self):
        self.counts = {"matmul": 0, "phi": 0, "grad_f": 0, "f": 0}
        self._X = None
        self.phiX = None
        self.gram = None
        self.AX = None
        self.gradfA = None

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
        if self._X is not None and self._X.shape == X.shape and np.array_equal(self._X, X):
            return
        self._X = X.copy()
        self.phiX = self._phi(spec, X)
        self.gram = self._mm(X.T, self.phiX)
        self.AX = 1.5 * X - 0.5 * self._mm(X, self.gram.T)
        self.gradfA = None

    def ensure_grad(self, problem, spec, X):
        self.ensure_base(spec, X)
        if self.gradfA is None:
            self.counts["grad_f"] += 1
            self.gradfA = problem.grad(self.AX)


def penalty_value(pf, X, cache=None):
    cache = cache if cache is not None else EvalCache()
    cache.ensure_base(pf.spec, X)
    C = cache.gram - np.eye(pf.spec.p)
    cache.counts["f"] += 1
    return float(pf.problem.f(cache.AX)) + 0.5 * pf.beta * float(np.vdot(C, C))


def penalty_gradient(pf, X, cache=None):
    """Gradient of the penalty; 8 metered products and 3 phi applications.

    The psi-dependent pieces are evaluated through phi(X T) = phi(X) psi(T),
    so no explicit psi application is needed.
    """
    spec = pf.spec
    cache = cache if cache is not None else EvalCache()
    X = np.asarray(X, dtype=float)
    cache.ensure_base(spec, X)
    cache.ensure_grad(pf.problem, spec, X)
    G, Gf, phiX = cache.gram, cache.gradfA, cache.phiX
    lead = cache._mm(Gf, 1.5 * np.eye(spec.p) - 0.5 * G)
    T = cache._mm(Gf.T, X)
    sym_f = cache._mm(phiX, T.T) + cache._phi(spec, cache._mm(X, T))
    C = G - np.eye(spec.p)
    sym_c = cache._mm(phiX, C.T) + cache._phi(spec, cache._mm(X, C))
    return lead - 0.5 * sym_f + pf.beta * sym_c


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
    X = np.asarray(X, dtype=float)
    dX = np.asarray(dX, dtype=float)
    cache.ensure_base(spec, X)
    cache.ensure_grad(pf.problem, spec, X)
    phiX, G, Gf = cache.phiX, cache.gram, cache.gradfA
    mm = cache._mm
    phiD = cache._phi(spec, dX)
    P = mm(phiD.T, X)                     # transpose of X^T phi(dX)
    Q = mm(phiX.T, dX)                    # transpose of dX^T phi(X)

    DAdX = 1.5 * dX - 0.5 * (mm(dX, G.T) + mm(X, P + Q))
    Hf = pf.problem.hessvec(cache.AX, DAdX)
    R = mm(X.T, Hf)
    lead = mm(Hf, 1.5 * np.eye(spec.p) - 0.5 * G)
    on_phiX = (-0.5 * (spec.gen_sym(R.T) + spec.gen_sym(mm(Gf.T, dX)))
               + pf.beta * (spec.gen_sym(Q.T) + spec.gen_sym(P.T)))
    on_phiD = pf.beta * spec.gen_sym(G - np.eye(spec.p)) - 0.5 * spec.gen_sym(mm(Gf.T, X))
    return (lead - 0.5 * mm(Gf, spec.gen_sym(P))
            + mm(phiX, on_phiX) + mm(phiD, on_phiD))


def postprocess(spec, X, eps_f=1e-12, max_rounds=50):
    """Drive the constraint residual under eps_f by repeated dissolving.

    Returns (FeasiblePoint, rounds).  Raises PostprocessDivergence (with the
    residual trace attached) when the iterate sits outside the contraction
    basin or the target cannot be met within max_rounds.
    """
    X = np.asarray(X, dtype=float)
    c = np.linalg.norm(X.T @ spec.phi(X) - np.eye(spec.p))
    trace = [c]
    rounds = 0
    while c >= eps_f:
        if rounds >= max_rounds:
            raise PostprocessDivergence(
                f"residual {c:.3e} after {rounds} rounds, target {eps_f:.1e}", trace)
        if not np.isfinite(c) or c > 10.0 * trace[0] + 1.0:
            raise PostprocessDivergence(
                f"residual diverged to {c:.3e} after {rounds} rounds", trace)
        X = dissolve(spec, X)
        c = np.linalg.norm(X.T @ spec.phi(X) - np.eye(spec.p))
        rounds += 1
        trace.append(c)
    return FeasiblePoint(spec, X, tol=max(eps_f, 1e-12)), rounds


def stationarity_report(pf, X, eps_f=1e-12, max_rounds=50):
    """Norms used in result tables: penalty gradient, feasibility, and the
    projected objective gradient at the post-processed point."""
    cache = EvalCache()
    gh = penalty_gradient(pf, X, cache)
    feas = float(np.linalg.norm(cache.gram - np.eye(pf.spec.p)))
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
