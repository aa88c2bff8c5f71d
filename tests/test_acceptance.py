"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import time

import numpy as np

import orthopt as op
from orthopt.diagnostics import desk_specs
from orthopt.harness import ExperimentConfig, timing_profile
from orthopt.manifolds import EvalCache, riemannian_gradient, theta_lstsq
from orthopt.penalty import (dA, dA_adjoint, dCA, dissolve, penalty_gradient, penalty_hessvec,
                             penalty_value)
from orthopt.problems import toy_problem
from orthopt.solvers import SolverConfig, run_solver

SPECS = desk_specs()


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _unit(spec, seed):
    rng = np.random.default_rng(seed)
    V = spec.random_ambient(rng)
    return V / np.linalg.norm(V)


def test_criterion_01_companion_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in SPECS:
        rng = np.random.default_rng(101)
        for _ in range(50):
            X = _unit(spec, rng.integers(1 << 30))
            Y = _unit(spec, rng.integers(1 << 30))
            T = spec.random_gram(rng)
            T /= np.linalg.norm(T)
            worst = max(worst, abs(np.vdot(spec.phi(X), Y) - np.vdot(X, spec.phi(Y))))
            worst = max(worst, np.linalg.norm(spec.phi(X @ T) - spec.phi(X) @ spec.psi(T)))
            worst = max(worst, np.linalg.norm(spec.psi(spec.phi(X).mT @ X) - X.mT @ spec.phi(X)))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12 and elapsed < 5.0,
            f"companion identities, worst residual {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_dissolving_property():
    worst_d, worst_fix = 0.0, 0.0
    for spec in SPECS:
        X = spec.random_feasible(102).X
        worst_fix = max(worst_fix,
                        np.linalg.norm(dissolve(spec, X) - X) / np.linalg.norm(X))
        for s in range(20):
            Z = _unit(spec, 2000 + s)
            worst_d = max(worst_d, np.linalg.norm(dCA(spec, X, Z)))
    _report(2, worst_d <= 1e-11 and worst_fix <= 1e-12,
            f"composite differential {worst_d:.2e}, fixed point {worst_fix:.2e}")


def test_criterion_03_idempotence():
    worst = 0.0
    for spec in SPECS:
        X = spec.random_feasible(103).X
        for s in range(10):
            Z = _unit(spec, 3000 + s)
            DZ = dA(spec, X, Z)
            worst = max(worst, np.linalg.norm(dA(spec, X, DZ) - DZ))
            T = _unit(spec, 3500 + s)
            DT = dA_adjoint(spec, X, T)
            worst = max(worst, np.linalg.norm(dA_adjoint(spec, X, DT) - DT))
    _report(3, worst <= 1e-11, f"operator and adjoint idempotence, worst {worst:.2e}")


def test_criterion_04_quadratic_contraction():
    slopes = []
    for spec in SPECS:
        X = spec.random_feasible(104).X
        Z = _unit(spec, 104)
        xs, ys = [], []
        for t in (1e-1, 1e-2, 1e-3):
            Y = X + t * Z
            AY = dissolve(spec, Y)
            xs.append(np.log(np.linalg.norm(Y.mT @ spec.phi(Y) - np.eye(spec.p))))
            ys.append(np.log(np.linalg.norm(AY.mT @ spec.phi(AY) - np.eye(spec.p))))
        slopes.append(np.polyfit(xs, ys, 1)[0])
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    _report(4, ok, "contraction slopes " + ", ".join(f"{s:.2f}" for s in slopes))


def _ambient_basis(spec):
    shape = spec.batch + (spec.n, spec.p)
    k = int(np.prod(shape))
    return np.eye(k).reshape((k,) + shape)


def test_criterion_05_derivative_exactness():
    worst_g, worst_h = 0.0, 0.0
    t = 1e-5
    for spec in SPECS:
        prob = toy_problem(spec, 105)
        pf = op.PenaltyFunction(spec, prob, 0.7)
        X = spec.random_feasible(105).X + 0.1 * _unit(spec, 105)
        X /= np.linalg.norm(X) / np.sqrt(spec.p)
        g = penalty_gradient(pf, X)
        fd = np.zeros_like(g)
        for E in _ambient_basis(spec):
            fd += E * ((penalty_value(pf, X + t * E) - penalty_value(pf, X - t * E)) / (2 * t))
        worst_g = max(worst_g, np.linalg.norm(fd - g) / np.linalg.norm(g))
        for s in range(3):
            V = _unit(spec, 5000 + s)
            hv = penalty_hessvec(pf, X, V)
            fdh = (penalty_gradient(pf, X + t * V) - penalty_gradient(pf, X - t * V)) / (2 * t)
            worst_h = max(worst_h, np.linalg.norm(fdh - hv) / max(np.linalg.norm(hv), 1.0))
    _report(5, worst_g <= 1e-6 and worst_h <= 1e-5,
            f"gradient FD {worst_g:.2e}, Hessian action FD {worst_h:.2e}")


def test_criterion_06_stationarity_equivalence():
    prob = op.build_extrinsic_mean(60, 6, k=36, p_k=4, n_samples=100, seed=0)
    pf = op.PenaltyFunction(prob.spec, prob, 0.5)
    x0 = prob.spec.random_feasible(11)
    report = run_solver("cdf-lbfgs", pf, x0, SolverConfig(grad_tol=1e-9, max_iter=100000))
    point, _ = op.postprocess(prob.spec, report.X, eps_f=1e-12)
    rg = np.linalg.norm(riemannian_gradient(prob.spec, point, prob.grad(point.X)))
    ok = report.grad_norm <= 1e-9 and rg <= 1e-7 and point.feas <= 1e-12
    _report(6, ok, f"penalty grad {report.grad_norm:.2e} -> "
                   f"projected grad {rg:.2e}, feasibility {point.feas:.2e}")


def test_criterion_07_theta_oracle_equivalence(theta_oracle):
    rng = np.random.default_rng(107)
    worst = 0.0
    for spec in SPECS:
        pt = spec.random_feasible(107)
        for _ in range(5):
            D = rng.standard_normal(spec.batch + (spec.n, spec.p))
            Sg, _ = theta_oracle(spec, pt.phiX, D)
            Sc = theta_lstsq(spec, pt, D)
            worst = max(worst, np.linalg.norm(Sg - Sc) / np.linalg.norm(Sg))
    _report(7, worst <= 1e-10, f"basis least squares vs Lyapunov solve on "
                               f"{len(SPECS)} families, worst {worst:.2e}")


def test_criterion_08_gradient_work_accounting():
    spec = op.symplectic_stiefel(16, 4)
    prob = toy_problem(spec, 108)
    pf = op.PenaltyFunction(spec, prob, 0.7)
    X = spec.random_feasible(108).X + 0.05 * _unit(spec, 108)
    cache = EvalCache(spec, X)
    penalty_gradient(pf, X, cache)
    counts = dict(cache.counts)
    ok = counts == {"matmul": 5, "phi": 1, "grad_f": 1, "f": 0}
    _report(8, ok, f"one penalty gradient evaluation costs {counts}, "
                   f"below the paper's 8 products and 3 phi")


def test_criterion_09_cross_solver_agreement_lsm():
    t0 = time.perf_counter()
    prob = op.build_lsm(100, 10, seed=5, a=200.0, b=0.05)
    pf = op.PenaltyFunction(prob.spec, prob, 0.012)
    x0 = prob.spec.random_feasible(2)
    cfg = SolverConfig(grad_tol=1e-5, max_iter=100000)
    fvals, ok = [], True
    for sid in ("cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr", "rgd", "rcg"):
        r = run_solver(sid, pf, x0, cfg)
        ok &= r.status == "GradTol"
        if sid.startswith("cdf"):
            point, _ = op.postprocess(prob.spec, r.X, eps_f=1e-12)
            ok &= point.feas <= 1e-10
            fvals.append(prob.f(point.X))
        else:
            ok &= r.feas_norm <= 1e-10
            fvals.append(r.fval)
    spread = max(fvals) - min(fvals)
    gate = 1e-6 * (1.0 + abs(fvals[0]))
    elapsed = time.perf_counter() - t0
    ok = ok and spread <= gate and elapsed < 120.0
    _report(9, ok, f"six-solver Fval spread {spread:.2e} (gate {gate:.2e}), "
                   f"feasible, {elapsed:.1f}s")


def test_criterion_10_tensor_jfd_exactness():
    prob0 = op.build_tensor_jfd(20, 3, 4, n_samples=5, gamma=0.0, seed=1)
    pf0 = op.PenaltyFunction(prob0.spec, prob0, 0.8)
    x0 = prob0.spec.random_feasible(5)
    r0 = run_solver("cdf-lbfgs", pf0, x0, SolverConfig(grad_tol=1e-9, max_iter=100000))
    p0, _ = op.postprocess(prob0.spec, r0.X, eps_f=1e-12)
    f_clean = prob0.f(p0.X)

    prob1 = op.build_tensor_jfd(20, 3, 4, n_samples=5, gamma=0.5, seed=1)
    pf1 = op.PenaltyFunction(prob1.spec, prob1, 0.8)
    x1 = prob1.spec.random_feasible(5)
    best = np.inf
    for sid in ("cdf-lbfgs", "cdf-gd"):
        r = run_solver(sid, pf1, x1, SolverConfig(grad_tol=1e-5, max_iter=100000))
        point, _ = op.postprocess(prob1.spec, r.X, eps_f=1e-12)
        best = min(best, prob1.f(point.X))
    ok = f_clean <= 1e-10 and best <= 1e-6
    _report(10, ok, f"noiseless objective {f_clean:.2e}, noisy best {best:.2e}")


def test_criterion_11_extrinsic_mean_residuals():
    prob = op.build_extrinsic_mean(60, 6, k=36, p_k=4, n_samples=100, seed=0)
    pf = op.PenaltyFunction(prob.spec, prob, 0.5)
    x0 = prob.spec.random_feasible(11)
    r = run_solver("cdf-cg", pf, x0, SolverConfig(grad_tol=1e-5, max_iter=100000))
    point, _ = op.postprocess(prob.spec, r.X, eps_f=1e-12)
    init = np.linalg.norm(prob.samples - x0.X, axis=(1, 2))
    final = np.linalg.norm(prob.samples - point.X, axis=(1, 2))
    frac = float((final <= init).mean())
    _report(11, frac >= 0.95, f"residual improved for {100 * frac:.0f}% of 100 samples")


def test_criterion_12_timing_decomposition():
    cfg = ExperimentConfig(
        problem={"id": "lsm", "n": 100, "p": 10, "seed": 5, "a": 200.0, "b": 0.05},
        solvers=["cdf-gd", "cdf-cg", "rgd", "rcg"], tols=[1e-5], beta=0.012, x0_seed=2)
    profiles = timing_profile(cfg, iters=100)
    ok = True
    shares = {}
    for sid, tb in profiles.items():
        geom = tb["percent"]["retraction"] + tb["percent"]["transport"]
        shares[sid] = geom
        if sid.startswith("cdf"):
            ok &= geom == 0.0
        else:
            ok &= geom > 0.0
    _report(12, ok, "retraction+transport shares " +
            ", ".join(f"{k} {v:.1f}%" for k, v in shares.items()))
