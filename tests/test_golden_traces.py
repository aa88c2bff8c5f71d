"""Pinned outcomes of the six solvers on the three desk configs at tol 1e-5,
the Hessian-vector products of their ``cdf-tr`` cells, and a work budget for
``cdf-tr`` at tol 1e-9.

Each solve starts from its config's ``x0_seed``.  Status and iteration count
must match exactly and the final objective to 1e-12 relative, so a change
that alters the iterates of any solver shows up here.
"""

import os
from functools import lru_cache

import numpy as np
import pytest

from orthopt.harness import load_config, prepare
from orthopt.solvers import SolverConfig, run_solver

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

GOLDEN = [
    ("lsm_desk", "cdf-gd", "GradTol", 130, 0.0173172582699707),
    ("lsm_desk", "cdf-cg", "GradTol", 66, 0.017316947880665606),
    ("lsm_desk", "cdf-lbfgs", "GradTol", 72, 0.017316975883707973),
    ("lsm_desk", "cdf-tr", "GradTol", 6, 0.017316919181066502),
    ("lsm_desk", "rgd", "GradTol", 106, 0.017317306264310807),
    ("lsm_desk", "rcg", "GradTol", 375, 0.017317059356223588),
    ("extrinsic_desk", "cdf-gd", "GradTol", 143, 0.18708522758767684),
    ("extrinsic_desk", "cdf-cg", "GradTol", 95, 0.1870852263381529),
    ("extrinsic_desk", "cdf-lbfgs", "GradTol", 109, 0.18708522641043857),
    ("extrinsic_desk", "cdf-tr", "GradTol", 49, 0.187085226357607),
    ("extrinsic_desk", "rgd", "GradTol", 109, 0.1870852274645602),
    ("extrinsic_desk", "rcg", "GradTol", 143, 0.1870852269264312),
    ("tensor_jfd_desk", "cdf-gd", "GradTol", 255, 1.9045104078927846e-08),
    ("tensor_jfd_desk", "cdf-cg", "GradTol", 128, 1.6917607495898623e-09),
    ("tensor_jfd_desk", "cdf-lbfgs", "GradTol", 163, 3.948286687792352e-09),
    ("tensor_jfd_desk", "cdf-tr", "GradTol", 19, 4.453442533305392e-09),
    ("tensor_jfd_desk", "rgd", "GradTol", 323, 4.650747787582283e-08),
    ("tensor_jfd_desk", "rcg", "GradTol", 320, 2.6035841144114293e-08),
]


@lru_cache(maxsize=None)
def desk_bundle(name):
    cfg = load_config(os.path.join(CONFIG_DIR, name + ".cfg"))
    pf, _, starts = prepare(cfg)
    return pf, starts[cfg.x0_seed]


@pytest.mark.parametrize("config,solver_id,status,iters,fval", GOLDEN,
                         ids=[f"{c}-{s}" for c, s, *_ in GOLDEN])
def test_golden_desk_solve(config, solver_id, status, iters, fval):
    pf, x0 = desk_bundle(config)
    r = run_solver(solver_id, pf, x0, SolverConfig(grad_tol=1e-5, max_iter=100000))
    assert (r.status, r.iters) == (status, iters)
    np.testing.assert_allclose(r.fval, fval, rtol=1e-12, atol=0.0)


# Hessian-vector products formed by the cdf-tr cells above.  A re-solve after
# a rejected trial replays the products of its base, so only new ones count;
# formed afresh per re-solve these were 414, 571 and 593.  With each trial at
# the dissolved point A(x + p) they were 85, 616 and 272 (248, 511 and 451 at
# the raw point x + p); with the inner CG stopped at the solve's grad_tol,
# not below it, they were 78, 594 and 240, in the same iterations.  With
# the model value carried as a scalar along the inner CG and the 6-product
# Hessian-vector product, rounding moves tensor_jfd_desk to 235; with the
# tensor-JFD oracles as one stacked product per face, to 240.
CDF_TR_HESSVEC = [("lsm_desk", 78), ("extrinsic_desk", 594), ("tensor_jfd_desk", 240)]


@pytest.mark.parametrize("config,hessvec", CDF_TR_HESSVEC, ids=[c for c, _ in CDF_TR_HESSVEC])
def test_golden_cdf_tr_hessvec_count(config, hessvec):
    pf, x0 = desk_bundle(config)
    r = run_solver("cdf-tr", pf, x0, SolverConfig(grad_tol=1e-5, max_iter=100000))
    assert r.phase_counts["hessvec"] == hessvec


def test_cdf_tr_tol_1e9_hessvec_budget_on_lsm_desk():
    # the regularized trust-region ratio keeps rho near 1 where h - h_trial
    # is mostly rounding; with the plain ratio this solve took 835
    # iterations and 157,929 Hessian-vector products, with it 199 and 25,352.
    # Trials at the raw point x + p stalled with ||grad h|| between 1e-7 and
    # 9e-7 for about 100 iterations; at the dissolved point A(x + p) the
    # solve took 26 iterations and 3,631 products, and with the inner CG
    # stopped at the solve's grad_tol, not below it, 21 and 2,381.
    pf, x0 = desk_bundle("lsm_desk")
    r = run_solver("cdf-tr", pf, x0, SolverConfig(grad_tol=1e-9, max_iter=100000))
    assert r.status == "GradTol"
    assert r.phase_counts["hessvec"] <= 5000


def test_solve_reports_its_metered_work():
    # the start's value and gradient cost 6 products and 1 phi; each of the
    # 137 trials is the base of x + alpha d and the base of A(x + alpha d) it
    # dissolves to, 4 products and 2 phi; the gradient at each of the 130
    # accepted ones adds 4 products, the 7 rejected ones form no gradient,
    # and the 1 retry of a trial rejected on its charge alone forms
    # dA_x[d], 3 products and no phi:
    # 6 + 4 (137 + 130) + 3 = 1077 products, 1 + 2 137 = 275 phi
    pf, x0 = desk_bundle("lsm_desk")
    cfg = SolverConfig(grad_tol=1e-5, max_iter=100000)
    r = run_solver("cdf-gd", pf, x0, cfg)
    assert r.work == {"matmul": 1077, "phi": 275, "grad_f": 131, "f": 138}
    assert run_solver("rgd", pf, x0, cfg).work is None
