"""Invariant battery over all manifold families, shared by the CLI selftest."""

import json
import time

import numpy as np

from . import manifolds as mf
from .penalty import (PenaltyFunction, dA, dA_adjoint, dC, dC_adjoint, dCA, dissolve,
                      penalty_gradient, penalty_value)
from .problems import toy_problem


def desk_specs():
    """One small instance of each manifold family."""
    return [
        mf.stiefel(8, 3),
        mf.generalized_stiefel(8, 3),
        mf.symplectic_stiefel(8, 4),
        mf.indefinite_stiefel(9, 3, k=5, p_k=2),
        mf.hyperbolic(8, 3, neg=3),
        mf.tensor_stiefel(4, 2, 3),
    ]


def battery_specs():
    """The specs the invariant battery runs over, by label: the desk specs
    under their family names, and an indefinite-stiefel spec whose A is a
    rotated diagonal, so that its phi takes the dense route."""
    specs = {spec.name: spec for spec in desk_specs()}
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    A = (Q * np.array([3.0, 2.0, 1.5, 1.0, 0.5, -1.0, -2.0, -3.0, -4.0])) @ Q.T
    specs["indefinite-stiefel-dense"] = mf.indefinite_stiefel(9, 3, k=5, p_k=2, A=A)
    return specs


def _unit(rng, spec):
    V = spec.random_ambient(rng)
    return V / np.linalg.norm(V)


def check_assumptions(spec):
    """Self-adjointness of phi, the two psi compatibility identities and
    psi(psi(T)) = T, by which the penalty Hessian-vector product takes its
    phi(dX) M as phi(dX psi(M))."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        X, Y = _unit(rng, spec), _unit(rng, spec)
        T = spec.random_gram(rng)
        T /= np.linalg.norm(T)
        sa = abs(np.vdot(spec.phi(X), Y) - np.vdot(X, spec.phi(Y)))
        compat = np.linalg.norm(spec.phi(X @ T) - spec.phi(X) @ spec.psi(T))
        closure = np.linalg.norm(spec.psi(spec.phi(X).mT @ X) - X.mT @ spec.phi(X))
        involution = np.linalg.norm(spec.psi(spec.psi(T)) - T)
        worst = max(worst, sa, compat, closure, involution)
    return worst <= 1e-12, worst


def check_cross_gram(spec):
    """X^T phi(Z) = psi(phi(X)^T Z), relative to its size, at a feasible X
    and at one 1e-2 off it: the identity by which dA takes both of its
    cross-Grams from one product.  It needs phi self-adjoint and
    phi(X T) = phi(X) psi(T)."""
    rng = np.random.default_rng(7)
    X0 = spec.random_feasible(7).X
    worst = 0.0
    for X in (X0, X0 + 1e-2 * _unit(rng, spec)):
        for _ in range(10):
            Z = _unit(rng, spec)
            lhs = X.mT @ spec.phi(Z)
            rhs = spec.psi(spec.phi(X).mT @ Z)
            worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
    return worst <= 1e-12, worst


def check_dissolve_carry(spec):
    """The parts a trial point A(Y) carries from Y against fresh ones,
    relative to their size, at Y 1e-2 off the manifold: its Gram matrix
    L G(Y) psi(L^T) against A(Y)^T phi(A(Y)), and phi(Y) psi(L^T) against
    phi(A(Y)), by phi(Y T) = phi(Y) psi(T)."""
    rng = np.random.default_rng(7)
    Y = spec.random_feasible(7).X + 1e-2 * _unit(rng, spec)
    carried = mf.EvalCache.dissolving(spec, Y)
    AY = carried.X
    phiA = spec.phi(AY)
    gram = AY.mT @ phiA
    worst = max(np.linalg.norm(carried.gram - gram) / np.linalg.norm(gram),
                np.linalg.norm(carried.phiX - phiA) / np.linalg.norm(phiA))
    return worst <= 1e-12, worst


def check_constraint_in_s1(spec):
    """The constraint residual always lies in S1 = {q^T W}.

    C is in S1 iff W = q C (C itself when q is None) has the symmetry of q:
    W = W^T for q symmetric or None, W = -W^T for q skew.
    """
    rng = np.random.default_rng(1)
    q = spec.q
    sign = 1.0 if q is None or np.vdot(q, q.mT) > 0 else -1.0
    worst = 0.0
    for _ in range(20):
        point = mf.EvalCache(spec, _unit(rng, spec)).base()
        W = point.C if q is None else q @ point.C
        worst = max(worst, np.linalg.norm(W - sign * W.mT) / max(point.feas, 1e-30))
    return worst <= 1e-12, worst


def check_dissolving(spec):
    """Fixed point on the manifold and vanishing composite differential."""
    rng = np.random.default_rng(2)
    X = spec.random_feasible(2).X
    worst = max(np.linalg.norm(dissolve(spec, X) - X) / np.linalg.norm(X), 0.0)
    for _ in range(20):
        Z = _unit(rng, spec)
        worst = max(worst, np.linalg.norm(dCA(spec, X, Z)))
    return worst <= 1e-11, worst


def check_idempotence(spec):
    rng = np.random.default_rng(3)
    X = spec.random_feasible(3).X
    worst = 0.0
    for _ in range(20):
        Z = _unit(rng, spec)
        DZ = dA(spec, X, Z)
        worst = max(worst, np.linalg.norm(dA(spec, X, DZ) - DZ))
        T = _unit(rng, spec)
        DT = dA_adjoint(spec, X, T)
        worst = max(worst, np.linalg.norm(dA_adjoint(spec, X, DT) - DT))
    return worst <= 1e-11, worst


def check_adjoint_pairs(spec):
    rng = np.random.default_rng(4)
    X = _unit(rng, spec) + spec.random_feasible(4).X
    worst = 0.0
    for _ in range(20):
        Z = _unit(rng, spec)
        T = spec.random_gram(rng)
        T /= np.linalg.norm(T)
        lhs = np.vdot(dC(spec, X, Z), T)
        rhs = np.vdot(Z, dC_adjoint(spec, X, T))
        worst = max(worst, abs(lhs - rhs))
        W = _unit(rng, spec)
        lhs = np.vdot(dA(spec, X, Z), W)
        rhs = np.vdot(Z, dA_adjoint(spec, X, W))
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-11, worst


def check_contraction_slope(spec):
    """Constraint residual after dissolving shrinks quadratically."""
    rng = np.random.default_rng(5)
    X = spec.random_feasible(5).X
    Z = _unit(rng, spec)
    xs, ys = [], []
    for t in (1e-1, 1e-2, 1e-3):
        point = mf.EvalCache(spec, X + t * Z)
        xs.append(np.log(point.feas))
        ys.append(np.log(point.dissolved().feas))
    slope = np.polyfit(xs, ys, 1)[0]
    return 1.8 <= slope <= 2.2, slope


def check_penalty_gradient_fd(spec):
    """Analytic penalty gradient against central differences."""
    pf = PenaltyFunction(spec, toy_problem(spec, 6), 0.7)
    rng = np.random.default_rng(6)
    X = _unit(rng, spec) + spec.random_feasible(6).X
    g = penalty_gradient(pf, X)
    worst = 0.0
    for _ in range(5):
        V = _unit(rng, spec)
        fd = (penalty_value(pf, X + 1e-5 * V) - penalty_value(pf, X - 1e-5 * V)) / 2e-5
        an = float(np.vdot(g, V))
        worst = max(worst, abs(fd - an) / max(1.0, abs(fd)))
    return worst <= 1e-6, worst


CHECKS = [
    ("assumption identities", check_assumptions),
    ("cross-Gram identity", check_cross_gram),
    ("dissolving-step carry", check_dissolve_carry),
    ("constraint in S1 span", check_constraint_in_s1),
    ("dissolving fixed point", check_dissolving),
    ("differential idempotence", check_idempotence),
    ("adjoint pairings", check_adjoint_pairs),
    ("quadratic contraction", check_contraction_slope),
    ("penalty gradient FD", check_penalty_gradient_fd),
]


def run_selftest(stream=None, as_json=False):
    """Run the battery over every desk-scale family and the dense-A
    indefinite frames; returns overall success.

    Writes a line per check and family and a summary line, or with
    ``as_json`` one JSON object {"checks", "passed", "seconds"} whose
    ``checks`` holds a row {check, family, ok, value} per line.
    """
    def emit(line):
        if stream is not None:
            stream.write(line + "\n")
    t0 = time.perf_counter()
    rows = []
    specs = battery_specs()
    for name, fn in CHECKS:
        for label, spec in specs.items():
            ok, value = fn(spec)
            rows.append({"check": name, "family": label, "ok": bool(ok), "value": float(value)})
            if not as_json:
                emit(f"[{'PASS' if ok else 'FAIL'}] {name:<26} {label:<26} ({value:.3e})")
    passed = all(row["ok"] for row in rows)
    seconds = time.perf_counter() - t0
    if as_json:
        emit(json.dumps({"checks": rows, "passed": passed, "seconds": seconds}))
    else:
        emit(f"selftest {'passed' if passed else 'FAILED'} in {seconds:.2f}s")
    return passed
