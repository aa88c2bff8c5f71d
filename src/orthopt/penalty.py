"""Constraint-dissolving operator, its differentials, and the exact penalty.

The operator  A(X) = 1.5 X - 0.5 X phi(X)^T X  fixes the manifold pointwise
and annihilates the differential of the constraint there, which makes

    h(X) = f(A(X)) + (beta / 2) ||X^T phi(X) - I||^2

an exact penalty: near the manifold its stationary points coincide with the
constrained ones, so any unconstrained solver can minimize it directly.
With C = X^T phi(X) - I its gradient is

    grad h(X) = dA(X)*[grad f(A(X))] + beta dC(X)*[C].

A point of either route is a ``manifolds.EvalCache`` (X, phi(X), the Gram
matrix, C and A(X)) around a read-only X; its ``dissolved`` cache is the
point A(X) on the same meter, whose store f and its derivatives at A(X)
use.  A trial point of the penalty solvers is made by
``EvalCache.dissolving``: it carries phi(X), its Gram matrix and C from
the raw step it dissolves.  dA, dA* and dC* are each written once as a
kernel over a cache, which the public derivatives use (the solvers'
tangent retry uses dA), and dC once, unmetered, as ``manifolds._dC``,
which ``tangent_test`` shares; a public function takes its cache at a
copy of X and checks the shape of each direction.  The residual C and its
norm are read off the cache (``EvalCache.base`` and ``EvalCache.feas``),
never formed again.
The adjoints never apply phi: with phi(X T) = phi(X) psi(T),

    dC(X)*[T] = phi(X) T^T + phi(X T) = phi(X) gen_sym(T),

so each is a product by phi(X) on the left of a p x p matrix, and the
gradient takes both in one product,

    grad h(X) = grad f(A(X)) lead + phi(X) (beta gen_sym(C) - 0.5 gen_sym(grad f(A(X))^T X)).

Nor does dA apply phi: with phi self-adjoint too, X^T phi(Z) =
psi(phi(X)^T Z), so its two cross-Grams come from one product, and it
costs 3 products and no phi.
A gradient costs 5 products and 1 phi at a new base and 3 products at a
point whose value was taken; a Hessian-vector product after it costs 6
products and 1 phi: it multiplies dX by two operands stacked once per
base, and its one phi is of dX psi(M), which is phi(dX) times the p x p
coefficient M of its curvature term.  ``postprocess`` costs one phi per
round.
"""

import math

import numpy as np

from .manifolds import EvalCache, _copy_X, _dC, _postprocess, _shaped, riemannian_gradient


class UnsupportedOperation(RuntimeError):
    """The underlying problem lacks the requested oracle."""


def dissolve(spec, X):
    """Apply the dissolving operator 1.5 X - 0.5 X phi(X)^T X."""
    return _cache_at(spec, X).base().AX


def dC(spec, X, Z):
    """Differential of the constraint map at X in direction Z."""
    return _dC(_cache_at(spec, X).base(), _shaped(spec, Z))


def dC_adjoint(spec, X, T):
    """Adjoint of dC: maps a p x p increment back into the ambient space."""
    return _dC_adjoint(_cache_at(spec, X).base(), _shaped(spec, T, spec.p))


def dA(spec, X, Z):
    """Differential of the dissolving operator."""
    return _dA(_cache_at(spec, X).base(), _shaped(spec, Z))


def dA_adjoint(spec, X, T):
    """Adjoint of dA."""
    return _dA_adjoint(_cache_at(spec, X).base(), _shaped(spec, T))


def dCA(spec, X, Z):
    """Differential of the composition constraint-after-dissolve."""
    cache = _cache_at(spec, X).base()
    E = _dC(cache, _shaped(spec, Z))
    G = cache.gram
    G2 = G @ G
    return 2.25 * E - 1.5 * (E @ G + G @ E) + 0.25 * (E @ G2 + G @ E @ G + G2 @ E)


class PenaltyFunction:
    """Bundle of manifold, objective, and penalty weight."""

    def __init__(self, spec, problem, beta):
        if not (beta > 0 and math.isfinite(beta)):
            raise ValueError(f"penalty weight must be positive and finite, got {beta}")
        self.spec = spec
        self.problem = problem
        self.beta = float(beta)


def _cache_at(spec, X, cache=None):
    """``cache``, which must be built around X itself, or without one a
    cache of its own at a float copy of X, an array or the X of a point, so
    that nothing is written into the caller's point."""
    if cache is None:
        return EvalCache(spec, _copy_X(spec, X))
    if X is not cache.X:
        raise ValueError("the cache is built around another array than X")
    return cache


# Kernels over a cache that has its base.  psi enters only through gen_sym
# and the cross-Gram P of dA.

def _dA(cache, Z):
    """dA(X)[Z] = 1.5 Z - 0.5 (Z G^T + X (P + Q)), with the cross-Grams
    Q = phi(X)^T Z and P = phi(Z)^T X; 3 products, no phi.  P is
    psi(Q)^T: phi is self-adjoint and phi(X T) = phi(X) psi(T), so
    X^T phi(Z) = psi(phi(X)^T Z) and phi(Z) is never formed."""
    mm, X = cache._mm, cache.X
    Q = mm(cache.phiX.mT, Z)
    P = cache.spec.psi(Q).mT
    return 1.5 * Z - 0.5 * (mm(Z, cache.gram.mT) + mm(X, P + Q))


def _dC_adjoint(cache, T):
    """dC(X)*[T] = phi(X) gen_sym(T); 1 product, no phi."""
    return cache._mm(cache.phiX, cache.spec.gen_sym(T))


def _dA_adjoint(cache, V):
    """dA(X)*[V] = V lead - 0.5 dC(X)*[V^T X] = V lead + phi(X) (-0.5 SV),
    SV = gen_sym(V^T X); 3 products."""
    SV = cache.spec.gen_sym(cache._mm(V.mT, cache.X))
    return cache._mm(V, cache.lead) + cache._mm(cache.phiX, -0.5 * SV)


def penalty_value(pf, X, cache=None):
    """h(X); f(A(X)) fills the store of the point A(X), ``cache.dissolved()``,
    which a gradient there reads."""
    cache = _cache_at(pf.spec, X, cache).base()
    cache.counts["f"] += 1
    fA = pf.problem.f(cache.AX, cache.dissolved().store)
    return float(fA) + 0.5 * pf.beta * float(np.vdot(cache.C, cache.C))


def penalty_gradient(pf, X, cache=None):
    """dA(X)*[grad f(A(X))] + beta dC(X)*[C], taken with one product by
    phi(X) as grad f(A(X)) lead + phi(X) (beta SC - 0.5 SV), where
    (SV, SC) = ``syms``; 5 metered products and 1 phi application at a new
    base, 3 products at a point whose value was taken, 2 at a base that
    has its ``syms``."""
    cache = _cache_at(pf.spec, X, cache)
    cache.ensure_grad(pf.problem)
    SV, SC = cache.syms
    return cache._mm(cache.gradfA, cache.lead) + cache._mm(cache.phiX, pf.beta * SC - 0.5 * SV)


def penalty_hessvec(pf, X, dX, cache=None):
    """Action of the penalty Hessian; 6 metered products and 1 phi
    application at a base that has its ``syms``, 7 when it forms them.

    Needs the problem's Hessian oracle.  The first product at a base (for
    a penalty weight) stacks its operands once into ``cache.hv_ops``:
    B = [phi(X) | -0.5 grad f(A(X))] (n x 2p) and K = [lead^T | psi(M)]
    (p x 2p), M = beta gen_sym(C) - 0.5 gen_sym(grad f(A(X))^T X).  Then B^T dX gives the cross-Gram Q and
    grad f^T dX in one product, and dX K gives dX lead^T, from which
    dA(X)[dX] = dX lead^T - X (P + Q)/2 (P = psi(Q)^T), and dX psi(M), whose
    phi is the curvature term phi(dX) M (psi is an involution).  With
    X^T Hf and Hf lead for the objective's Hessian action Hf, the terms on
    phi(X) and on grad f(A(X)) come from one product by B.
    """
    if pf.problem.hessvec is None:
        raise UnsupportedOperation(f"problem {getattr(pf.problem, 'name', '?')} has no Hessian oracle")
    spec = pf.spec
    cache = _cache_at(pf.spec, X, cache)
    dX = _shaped(spec, dX)
    cache.ensure_grad(pf.problem)
    if cache.hv_ops is None or cache.hv_ops[0] != pf.beta:    # K holds beta
        SV, SC = cache.syms
        cache.hv_ops = (pf.beta, np.concatenate([cache.phiX, -0.5 * cache.gradfA], axis=-1),
                        np.concatenate([cache.lead.mT, spec.psi(pf.beta * SC - 0.5 * SV)], axis=-1))
    _, B, K = cache.hv_ops
    X, mm, p = cache.X, cache._mm, spec.p
    BdX, dXK = mm(B.mT, dX), mm(dX, K)
    Q, W = BdX[..., :p, :], BdX[..., p:, :]
    P = spec.psi(Q).mT
    PQ = P + Q
    Hf = pf.problem.hessvec(cache.AX, dXK[..., :p] - mm(X, 0.5 * PQ), cache.dissolved().store)
    on_phiX = spec.gen_sym(W - 0.5 * mm(X.mT, Hf).mT + pf.beta * PQ.mT)
    on_gradf = spec.gen_sym(P)
    return (mm(Hf, cache.lead) + mm(B, np.concatenate([on_phiX, on_gradf], axis=-2))
            + cache._phi(dXK[..., p:]))


def postprocess(spec, X, eps_f=1e-12):
    """Drive the constraint residual under eps_f by repeated dissolving.

    Each round is one base point: its residual C and its A(X), the next
    iterate, share one phi(X) and one Gram matrix.  The first base is a
    cache at a copy of X and each next one is the previous one's
    ``dissolved`` cache.  Returns (point, rounds), the point being the last
    base, whose residual is under eps_f.  Raises
    PostprocessDivergence (with the residual trace attached) when the
    residual is not finite, when a round does not lower it (outside the
    contraction basin, or at a fixed point of A off the manifold such as
    X = 0), or when the target cannot be met within POSTPROCESS_MAX_ROUNDS.
    """
    return _postprocess(_cache_at(spec, X), eps_f)


def stationarity_report(pf, X, eps_f=1e-12):
    """Norms used in result tables: penalty gradient, feasibility, and the
    projected objective gradient at the post-processed point.  The
    post-processing starts from the gradient's cache, so X is copied and
    phi(X), the Gram matrix and A(X) are formed once."""
    cache = _cache_at(pf.spec, X)
    gh = penalty_gradient(pf, cache.X, cache)
    feas = cache.feas
    point, rounds = _postprocess(cache, eps_f)
    rg = riemannian_gradient(pf.spec, point, pf.problem.grad(point.X, point.store))
    return {
        "grad_h": float(np.linalg.norm(gh)),
        "feas": feas,
        "grad_f_post": float(np.linalg.norm(rg)),
        "feas_post": point.feas,
        "rounds": rounds,
        "point": point,
    }
