import os

import numpy as np
import pytest

import orthopt as op
import orthopt.penalty as penalty_mod
import orthopt.solvers as solvers_mod
from orthopt.diagnostics import battery_specs
from orthopt.harness import TRACE_HEADER, load_config, prepare
from orthopt.problems import toy_problem
from orthopt.solvers import (
    STATUS_GRAD_TOL,
    STATUS_LS_FAIL,
    STATUS_MAX_ITER,
    STATUS_RADIUS_COLLAPSE,
    STATUS_TIME_LIMIT,
    TR_INIT_RADIUS,
    FunctionOracle,
    ManifoldOracle,
    PenaltyOracle,
    PhaseClock,
    SolverConfig,
    TrustRegion,
    _steihaug,
    minimize,
    run_solver,
)


def quad_oracle(H):
    H = np.asarray(H, dtype=float)
    return FunctionOracle(lambda x: 0.5 * float(x @ H @ x),
                          lambda x: H @ x,
                          lambda x, v: H @ v)


def rosen_oracle():
    def f(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    def g(x):
        return np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                         200 * (x[1] - x[0] ** 2)])

    return FunctionOracle(f, g)


def lsm_desk(beta=0.5, seed=0):
    prob = op.build_lsm(20, 4, seed=seed)
    return op.PenaltyFunction(prob.spec, prob, beta), prob


def tjfd_desk():
    prob = op.build_tensor_jfd(20, 3, 4, n_samples=5, gamma=0.5, seed=1)
    return op.PenaltyFunction(prob.spec, prob, 0.8), prob


def ignoring_store(prob):
    """The same problem with oracles that drop the store and compute afresh."""
    return op.Problem(prob.spec, lambda X, store=None: prob.f(X),
                      lambda X, store=None: prob.grad(X),
                      lambda X, V, store=None: prob.hessvec(X, V),
                      name=prob.name, metadata=prob.metadata)


# ------------------------------------------------------------- basic trios

@pytest.mark.parametrize("setting", [
    pytest.param({"grad_tol": float("nan")}, id="grad_tol"),
    pytest.param({"max_iter": float("nan")}, id="max_iter"),
    pytest.param({"time_limit": float("nan")}, id="time_limit"),
    pytest.param({"grad_tol": float("inf")}, id="grad_tol=inf"),
])
def test_solver_config_rejects_nan(setting):
    with pytest.raises(ValueError):
        SolverConfig(**setting)


def test_gd_bb_unit_quadratic_fast():
    r = minimize("cdf-gd", quad_oracle(np.eye(4)), np.full(4, 2.0), SolverConfig(grad_tol=1e-8))
    assert r.status == STATUS_GRAD_TOL and r.iters <= 5
    np.testing.assert_allclose(r.X, 0.0, atol=1e-7)


def test_gd_bb_ill_conditioned_quadratic():
    H = np.diag([1.0, 100.0])
    r = minimize("cdf-gd", quad_oracle(H), np.array([1.0, 1.0]),
                 SolverConfig(grad_tol=1e-9, max_iter=200))
    assert r.status == STATUS_GRAD_TOL and r.iters <= 200


def test_cg_finite_termination_on_spd_quadratic():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    H = M @ M.T + 5 * np.eye(5)
    r = minimize("cdf-cg", quad_oracle(H), rng.standard_normal(5), SolverConfig(grad_tol=1e-8))
    assert r.status == STATUS_GRAD_TOL and r.iters <= 5


def test_cg_rosenbrock():
    r = minimize("cdf-cg", rosen_oracle(), np.array([-1.2, 1.0]),
                 SolverConfig(grad_tol=1e-8, max_iter=5000))
    np.testing.assert_allclose(r.X, [1.0, 1.0], atol=1e-6)


def test_lbfgs_quadratic():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 6))
    H = M @ M.T + 4 * np.eye(6)
    r = minimize("cdf-lbfgs", quad_oracle(H), rng.standard_normal(6), SolverConfig(grad_tol=1e-8))
    assert r.status == STATUS_GRAD_TOL and r.iters <= 30


def test_lbfgs_rosenbrock():
    r = minimize("cdf-lbfgs", rosen_oracle(), np.array([-1.2, 1.0]),
                 SolverConfig(grad_tol=1e-8, max_iter=5000))
    np.testing.assert_allclose(r.X, [1.0, 1.0], atol=1e-6)


def test_trust_ncg_single_step_inside_radius():
    H = np.diag([1.0, 2.0, 3.0])
    x0 = np.full(3, 0.3)   # minimizer within the initial radius
    r = minimize("cdf-tr", quad_oracle(H), x0, SolverConfig(grad_tol=1e-8))
    assert r.status == STATUS_GRAD_TOL and r.iters == 1


def _steihaug_case(H, g, radius):
    H = np.asarray(H, dtype=float)
    curvatures = []

    def hv(v):
        Hv = H @ v
        curvatures.append(float(v @ Hv))
        return Hv

    g = np.asarray(g, dtype=float)
    p, model, hit = _steihaug(hv, g, np.linalg.norm(g), radius, [], 0.0)
    expected = g @ p + 0.5 * p @ (H @ p)
    assert abs(model - expected) <= 1e-12 * abs(expected)
    return p, hit, curvatures


def test_trust_region_inner_solve_stops_at_the_solves_grad_tol(monkeypatch):
    # on a quadratic of condition number 1e4 the last step starts at a
    # gradient where the forcing rule asks for a residual more than 10x
    # below grad_tol; floored at grad_tol, the inner CG stops sooner, and
    # the solve ends on GradTol in the same iterations with fewer products
    H = np.diag(np.geomspace(1.0, 1e4, 50))
    x0 = np.random.default_rng(0).standard_normal(50)
    cfg = SolverConfig(grad_tol=1e-6)
    r = minimize("cdf-tr", quad_oracle(H), x0, cfg)
    steihaug = solvers_mod._steihaug
    monkeypatch.setattr(solvers_mod, "_steihaug", lambda hv, g, gn, radius, products, floor:
                        steihaug(hv, g, gn, radius, products, 0.0))
    plain = minimize("cdf-tr", quad_oracle(H), x0, cfg)
    gn = r.trace[-2][2]
    assert gn * min(solvers_mod.TCG_KAPPA, gn ** solvers_mod.TCG_THETA) < 0.1 * cfg.grad_tol
    assert (r.status, r.iters) == (plain.status, plain.iters) == (STATUS_GRAD_TOL, 9)
    assert r.trace[-1][-1] < plain.trace[-1][-1]
    assert r.phase_counts["hessvec"] < plain.phase_counts["hessvec"]


def test_trust_region_re_solve_replays_the_products_of_its_base():
    # the first trial lands where the objective is infinite and is rejected;
    # the re-solve at a quarter of the radius reads a prefix of the first
    # solve's products and forms none of its own
    H = np.diag(np.geomspace(1.0, 100.0, 8))
    x = 0.3 * np.random.default_rng(9).standard_normal(8)
    g = H @ x
    gn = np.linalg.norm(g)
    formed = []

    def f(y):
        return 0.5 * float(y @ H @ y) if np.linalg.norm(y - x) <= 0.5 else np.inf

    def solve_afresh(radius):
        asked = []
        p, _, hit = _steihaug(lambda v: asked.append(v) or H @ v, g, gn, radius, [], 0.0)
        return p, hit, asked

    oracle = FunctionOracle(f, lambda y: H @ y, lambda y, v: formed.append(v) or H @ v)
    clock = PhaseClock()
    xn, hn = TrustRegion().step(oracle, clock, x, g, gn, f(x), f(x), lambda: False, 0.0)
    p1, hit1, first = solve_afresh(TR_INIT_RADIUS)
    p2, hit2, second = solve_afresh(0.25 * TR_INIT_RADIUS)
    assert not hit1 and np.linalg.norm(p1) > 0.5               # the rejected trial
    assert hit2 and 2 <= len(second) < len(first)
    assert clock.counts["objective"] == 2
    assert np.array_equal(xn, x + p2) and hn == f(x + p2)
    assert len(formed) == clock.counts["hessvec"] == len(first)
    assert all(np.array_equal(a, b) for a, b in zip(formed, first))


class _ShortReach(FunctionOracle):
    """The quadratic 0.5 x^T H x, whose oracle cannot take a trial step longer than ``reach``."""

    def __init__(self, H, reach):
        super().__init__(lambda x: 0.5 * float(x @ H @ x), lambda x: H @ x, lambda x, v: H @ v)
        self.reach, self.refused = reach, 0

    def trial(self, x, step, clock):
        if np.linalg.norm(step) > self.reach:
            self.refused += 1
            return None
        return super().trial(x, step, clock)


def test_trust_region_takes_a_trial_that_comes_back_none_as_a_rejection():
    # the first trial, on the boundary of the initial radius, is longer than
    # the oracle's reach and comes back None: rho = -1 shrinks the radius to a
    # quarter without a value, and the re-solve is accepted on its exact
    # model, which doubles that radius
    H = np.diag([1.0, 2.0, 3.0])
    oracle = _ShortReach(H, 0.5)
    x = np.full(3, 3.0)
    g = H @ x
    clock = PhaseClock()
    rule = TrustRegion()
    h = oracle.value(x)
    xn, hn = rule.step(oracle, clock, x, g, np.linalg.norm(g), h, h, lambda: False, 0.0)
    assert oracle.refused == 1 and clock.counts["objective"] == 1
    np.testing.assert_allclose(np.linalg.norm(xn - x), 0.25 * TR_INIT_RADIUS, rtol=1e-12)
    assert hn == oracle.value(xn) and rule.radius == 0.5 * TR_INIT_RADIUS
    r = minimize("cdf-tr", _ShortReach(H, 0.5), x, SolverConfig(grad_tol=1e-8))
    assert r.status == STATUS_GRAD_TOL
    # an oracle that takes no trial at all collapses the radius
    never = _ShortReach(H, 0.0)
    r = minimize("cdf-tr", never, x, SolverConfig(grad_tol=1e-8))
    assert (r.status, r.iters, r.phase_counts["objective"]) == (STATUS_RADIUS_COLLAPSE, 0, 1)
    assert never.refused > 1


def test_cdf_tr_accepts_the_dissolved_trial_bit_for_bit():
    # every accepted cdf-tr iterate on the lsm desk config is A(x + p), the
    # public dissolve of the raw trial point
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "lsm_desk.cfg"))
    prob = prepare(cfg)[0].problem
    oracle = PenaltyOracle(op.PenaltyFunction(prob.spec, prob, cfg.beta))
    trials, accepted = {}, []
    trial, grad = oracle.trial, oracle.grad

    def spy_trial(x, p, clock):
        xn = trial(x, p, clock)
        trials[id(xn)] = (xn, x.X, p)
        return xn

    oracle.trial = spy_trial
    oracle.grad = lambda x: accepted.append(x) or grad(x)
    r = minimize("cdf-tr", oracle, prob.spec.random_feasible(cfg.x0_seed).X,
                 SolverConfig(grad_tol=1e-5))
    assert r.status == STATUS_GRAD_TOL and len(accepted) == r.iters + 1 > 1
    assert len(trials) > r.iters                                 # some trials were rejected
    for xn in accepted[1:]:
        _, x, p = trials[id(xn)]
        assert np.array_equal(xn.X, op.dissolve(prob.spec, x + p))
    assert np.array_equal(r.X, accepted[-1].X)


@pytest.mark.parametrize("solver_id", ["cdf-gd", "cdf-cg", "cdf-lbfgs"])
def test_line_search_accepts_the_charged_dissolved_trial_bit_for_bit(monkeypatch, solver_id):
    # every accepted line-search iterate on the extrinsic desk config is
    # A(x + alpha d), the public dissolve of the raw step along the direction
    # d the search returns, whose value is the penalty at the point that
    # carries its parts from the raw step (and, to rounding, the penalty at
    # fresh ones), and passes the sufficient-decrease test with
    # beta/2 ||C(x + alpha d)||^2 added to its value
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                   "extrinsic_desk.cfg"))
    prob = prepare(cfg)[0].problem
    pf = op.PenaltyFunction(prob.spec, prob, cfg.beta)
    search, hits = solvers_mod._search, []

    def spy_search(oracle, clock, x, g, d, gd, merit_c, alpha0):
        out = search(oracle, clock, x, g, d, gd, merit_c, alpha0)
        hits.append((oracle, x, merit_c, out))
        return out

    monkeypatch.setattr(solvers_mod, "_search", spy_search)
    r = run_solver(solver_id, pf, prob.spec.random_feasible(cfg.x0_seed), SolverConfig(grad_tol=1e-5))
    assert r.status == STATUS_GRAD_TOL and len(hits) == r.iters > 1
    charges = []
    for oracle, x, merit_c, (alpha, xn, hn, d, gd) in hits:
        raw = x.X + alpha * d
        carried = op.EvalCache.dissolving(prob.spec, raw)
        assert np.array_equal(xn.X, op.dissolve(prob.spec, raw))
        assert np.array_equal(carried.X, xn.X)
        assert hn == op.penalty_value(pf, carried.X, carried)      # the merit takes h uncharged
        np.testing.assert_allclose(hn, op.penalty_value(pf, xn.X), rtol=1e-14)   # fresh parts
        charge = oracle.charge(xn)
        np.testing.assert_allclose(
            charge, 0.5 * pf.beta * np.linalg.norm(op.constraint(prob.spec, raw)) ** 2,
            rtol=1e-12, atol=1e-300)
        assert hn + charge <= merit_c + solvers_mod.LS_C1 * alpha * gd
        charges.append(charge)
    assert max(charges) > 0.0
    assert np.array_equal(r.X, hits[-1][-1][1].X)


def _replay_search(spec, x, g, d, gd, merit_c, alpha0, trials):
    """Replay one search of the line-search rule from its recorded trials,
    each (step, h, charge), with the retry direction from the public dA;
    returns the index of the accepted trial, the retries and the retries
    that followed an h-rejection."""
    alpha, retried, after_h, rejected_on_h = alpha0, 0, 0, False
    for j, (step, h, charge) in enumerate(trials):
        assert np.array_equal(step, alpha * d)
        bound = merit_c + solvers_mod.LS_C1 * alpha * gd
        if h + charge <= bound:
            return j, retried, after_h
        if not retried and h <= bound:          # the first charge-only rejection
            retried, after_h = 1, int(rejected_on_h)
            t = op.dA(spec, x.X, d)
            if solvers_mod._dot(g, t) < 0.0:
                d, gd = t, solvers_mod._dot(g, t)
                continue                        # the retry keeps alpha
        rejected_on_h = rejected_on_h or not h <= bound
        alpha *= solvers_mod.LS_SHRINK
    return None, retried, after_h


@pytest.mark.parametrize("solver_id", ["cdf-gd", "cdf-cg", "cdf-lbfgs"])
def test_a_first_trial_rejected_on_its_charge_alone_is_retried_along_dA(monkeypatch, solver_id):
    # the first trial of a search that passes on h and fails on h + charge,
    # whatever its alpha, is retried once, at the same alpha, along the
    # public dA(spec, x, d) bit for bit when that is downhill; the search
    # returns that direction and its slope, every later trial halves alpha
    # along it, and a later charge-only rejection is not retried.  On the
    # extrinsic desk config some of those rejections follow a trial
    # rejected on h, which halved alpha first.
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                   "extrinsic_desk.cfg"))
    prob = prepare(cfg)[0].problem
    pf = op.PenaltyFunction(prob.spec, prob, cfg.beta)
    search, trial, value = solvers_mod._search, PenaltyOracle.trial, PenaltyOracle.value
    steps, values, hits = [], {}, []

    def spy_trial(self, x, step, clock):
        steps.append(step)
        xn = trial(self, x, step, clock)
        values[id(xn)] = (len(steps) - 1, xn)
        return xn

    def spy_value(self, x):
        h = value(self, x)
        if id(x) in values:
            j, xn = values[id(x)]
            steps[j] = (steps[j], h, self.charge(xn))
        return h

    def spy_search(oracle, clock, x, g, d, gd, merit_c, alpha0):
        steps.clear()                       # drop the secant probe of cdf-cg
        out = search(oracle, clock, x, g, d, gd, merit_c, alpha0)
        hits.append((x, g, d, gd, merit_c, alpha0, list(steps), out))
        return out

    monkeypatch.setattr(PenaltyOracle, "trial", spy_trial)
    monkeypatch.setattr(PenaltyOracle, "value", spy_value)
    monkeypatch.setattr(solvers_mod, "_search", spy_search)
    r = run_solver(solver_id, pf, prob.spec.random_feasible(cfg.x0_seed), SolverConfig(grad_tol=1e-5))
    assert r.status == STATUS_GRAD_TOL and len(hits) == r.iters
    retries = after_h = 0
    for x, g, d, gd, merit_c, alpha0, tried, (alpha, xn, hn, d_out, gd_out) in hits:
        j, retried, followed = _replay_search(prob.spec, x, g, d, gd, merit_c, alpha0, tried)
        assert j == len(tried) - 1 and hn == tried[j][1]
        assert np.array_equal(xn.X, op.dissolve(prob.spec, x.X + tried[j][0]))
        assert np.array_equal(tried[j][0], alpha * d_out)
        if d_out is d:
            assert gd_out == gd
        else:
            assert retried and np.array_equal(d_out, op.dA(prob.spec, x.X, d))
            assert gd_out == solvers_mod._dot(g, d_out) < 0.0
        retries += retried
        after_h += followed
    assert after_h > 0 and retries > after_h


@pytest.mark.parametrize("solver_id,iters,fval,values", [
    ("cdf-gd", 76, "4.6389951607653125e-28", 104),
    ("cdf-cg", 40, "9.862437644686242e-27", 49),
    ("cdf-lbfgs", 58, "1.0563133020128285e-19", 69),
])
def test_flat_and_manifold_oracles_offer_no_retry(solver_id, iters, fval, values):
    # no charge, no tangent: a FunctionOracle solve takes the iterates of a
    # search without retries
    assert rosen_oracle().tangent(np.zeros(2), np.ones(2)) is None
    pf, prob = lsm_desk()
    pt = prob.spec.random_feasible(3)
    assert ManifoldOracle(prob, prob.spec).tangent(pt, pt.X) is None
    r = minimize(solver_id, rosen_oracle(), np.array([-1.2, 1.0]),
                 SolverConfig(grad_tol=1e-8, max_iter=5000))
    assert (r.status, r.iters, repr(r.fval)) == (STATUS_GRAD_TOL, iters, fval)
    assert r.phase_counts["objective"] == values


def _indef_lbfgs():
    prob = op.build_extrinsic_mean(120, 24, k=60, p_k=12, n_samples=100, seed=0)
    pf = op.PenaltyFunction(prob.spec, prob, 0.5)
    x0 = prob.spec.random_feasible(11)
    return pf, x0, run_solver("cdf-lbfgs", pf, x0, SolverConfig(grad_tol=1e-5))


def test_charged_line_search_reaches_the_riemannian_objective_on_indefinite_frames():
    # an uncharged trial at A(x + alpha d) hides the normal error of x + alpha d;
    # charged, L-BFGS converges and its post-processed point matches rgd's
    pf, x0, r = _indef_lbfgs()
    assert r.status == STATUS_GRAD_TOL
    point, _ = op.postprocess(pf.spec, r.X)
    ref = run_solver("rgd", pf, x0, SolverConfig(grad_tol=1e-5))
    assert ref.status == STATUS_GRAD_TOL
    f_cdf, f_ref = pf.problem.f(point.X), pf.problem.f(ref.X)
    assert abs(f_cdf - f_ref) <= 1e-6 * abs(f_ref)


def test_uncharged_dissolved_trials_fail_on_indefinite_frames(monkeypatch):
    monkeypatch.setattr(PenaltyOracle, "charge", lambda self, trial: 0.0)
    _, _, r = _indef_lbfgs()
    assert r.status == STATUS_LS_FAIL


def test_steihaug_returns_model_value_interior():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((8, 8))
    p, hit, curv = _steihaug_case(M @ M.T + np.eye(8), rng.standard_normal(8), 1e6)
    assert not hit and len(curv) > 1


def test_steihaug_returns_model_value_at_boundary():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((8, 8))
    p, hit, curv = _steihaug_case(M @ M.T + np.eye(8), rng.standard_normal(8), 0.5)
    assert hit and curv[-1] > 0.0
    np.testing.assert_allclose(np.linalg.norm(p), 0.5, rtol=1e-12)


def test_steihaug_returns_model_value_on_negative_curvature():
    # the first direction has positive curvature, the second negative
    p, hit, curv = _steihaug_case(np.diag([1.0, -2.0, 3.0]), [1.0, 0.1, 0.2], 10.0)
    assert hit and len(curv) > 1 and curv[-1] <= 0.0
    np.testing.assert_allclose(np.linalg.norm(p), 10.0, rtol=1e-12)


def test_steihaug_takes_a_nan_curvature_to_the_boundary():
    # a NaN curvature ends the inner solve as a negative one does, at a
    # finite point on the boundary; its model value is NaN, which no ratio
    # test accepts
    g = np.array([1.0, 0.5])
    p, model, hit = _steihaug(lambda v: np.full_like(v, np.nan), g, np.linalg.norm(g), 0.3, [], 0.0)
    assert hit and np.isnan(model)
    np.testing.assert_allclose(np.linalg.norm(p), 0.3, rtol=1e-12)


def test_trust_ncg_rosenbrock_with_fd_fallback():
    r = minimize("cdf-tr", rosen_oracle(), np.array([-1.2, 1.0]),
                 SolverConfig(grad_tol=1e-7, max_iter=500))
    np.testing.assert_allclose(r.X, [1.0, 1.0], atol=1e-5)


@pytest.mark.parametrize("solver_id", ["cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr"])
def test_cdf_solvers_on_desk_instance(solver_id):
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(3)
    r = run_solver(solver_id, pf, x0, SolverConfig(grad_tol=1e-5, max_iter=50000))
    assert r.status == STATUS_GRAD_TOL
    assert r.grad_norm <= 1e-5
    if solver_id == "cdf-tr":
        assert r.iters <= 40   # outer iterations only
    point, _ = op.postprocess(prob.spec, r.X, eps_f=1e-12)
    assert point.feas <= 1e-10


def test_cdf_tr_hessvec_budget_on_desk_instance():
    # the truncated inner solve: 1029 Hessian-vector products with a near-exact
    # inner stop, about 440 with the forcing rule
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(3)
    r = run_solver("cdf-tr", pf, x0, SolverConfig(grad_tol=1e-5, max_iter=50000))
    assert r.status == STATUS_GRAD_TOL
    assert r.phase_counts["hessvec"] <= 600


def test_cdf_tr_rejected_trials_keep_the_base():
    # each trial is an iterate with its own cache, so after a rejected trial
    # the next Hessian-vector product at x reuses grad f(A(X)); with one
    # shared cache and trials at x + p this solve took 46 grad f calls for
    # its 38 gradients.  Re-solves after a rejection replay their products,
    # so every product the oracle forms is counted once in phase_counts:
    # 208 with trials at A(x + p) and the inner CG stopped at grad_tol (221
    # with it stopped below; 415 at x + p, where forming each re-solve's
    # products afresh took 465); with phi and the Gram matrix at A(x + p)
    # carried from x + p, rounding adds an iteration and 227.
    pf, prob = lsm_desk()
    oracle = PenaltyOracle(pf)
    hessvec, products = oracle.hessvec, []
    oracle.hessvec = lambda x, v: products.append(v) or hessvec(x, v)
    r = minimize("cdf-tr", oracle, prob.spec.random_feasible(3).X,
                 SolverConfig(grad_tol=1e-5, max_iter=50000))
    assert (r.status, r.iters) == (STATUS_GRAD_TOL, 15)
    assert r.phase_counts["objective"] > r.iters                  # some trials were rejected
    assert oracle.meter["grad_f"] == r.phase_counts["gradient"] == 16
    assert len(products) == r.phase_counts["hessvec"] == 227


def test_cdf_tr_finite_difference_hessvec_pins_its_iterates_and_work():
    # without a Hessian oracle the penalty Hessian-vector product is a central
    # difference of two gradients, each at a point moved from x, not
    # dissolved: the 222 products take 444 of the 459 gradients, each 1 phi
    # and 5 products; the other 15 cost 5 products at the start and 3 at
    # each of the 14 accepted trials, each of the 19 trials dissolves x + p
    # once, 1 phi and 4 products with its value, and the reported residual
    # is 1 phi and 1 product: 2220 + 47 + 76 + 1 = 2344 products and
    # 444 + 1 + 19 + 1 = 465 phi
    _, prob = lsm_desk()
    prob = op.Problem(prob.spec, prob.f, prob.grad, None, name=prob.name,
                      metadata=prob.metadata)
    pf = op.PenaltyFunction(prob.spec, prob, 0.5)
    r = run_solver("cdf-tr", pf, prob.spec.random_feasible(3), SolverConfig(grad_tol=1e-5))
    assert (r.status, r.iters, repr(r.fval)) == (STATUS_GRAD_TOL, 14, "0.1513862493815461")
    assert r.phase_counts["hessvec"] == 222
    assert r.work == {"matmul": 2344, "phi": 465, "grad_f": 459, "f": 20}


BATTERY = battery_specs()


@pytest.mark.parametrize("label", list(BATTERY))
def test_a_trial_is_the_public_dissolve_of_the_raw_step_bit_for_bit(label):
    # a trial dissolves x + step once, 1 phi and 3 products, into the bits
    # of the public dissolve, and keeps the raw step's residual for the
    # charge; it carries its base, so its value costs 1 product, A of the
    # trial point, and its gradient 3 products and no phi.  From the start
    # and then from a carried trial point.
    spec = BATTERY[label]
    oracle = PenaltyOracle(op.PenaltyFunction(spec, toy_problem(spec, 0), 0.7))
    rng = np.random.default_rng(3)
    x = oracle.iterate(spec.random_feasible(3))
    for _ in range(2):
        step = 1e-2 * spec.random_ambient(rng)
        before = dict(oracle.meter)
        xn = oracle.trial(x, step, None)
        assert {k: oracle.meter[k] - before[k] for k in before} == \
            {"matmul": 3, "phi": 1, "grad_f": 0, "f": 0}
        assert np.array_equal(xn.X, op.dissolve(spec, x.X + step))
        assert np.array_equal(xn.origin_C, op.constraint(spec, x.X + step))
        assert xn.counts is oracle.meter
        oracle.value(xn)
        oracle.grad(xn)
        assert {k: oracle.meter[k] - before[k] for k in before} == \
            {"matmul": 7, "phi": 1, "grad_f": 1, "f": 1}
        x = xn


def test_phase_clock_keeps_the_oracle_seconds_as_a_running_total():
    clock = PhaseClock()
    for name in solvers_mod.ORACLE_PHASES * 2:
        with clock.phase(name):
            pass
    clock.seconds["linesearch"] += 1.0
    total = sum(clock.seconds[k] for k in solvers_mod.ORACLE_PHASES)
    assert abs(clock.oracle - total) <= 1e-12
    assert clock.row() == tuple(clock.seconds[k] for k in solvers_mod.ALL_PHASES)


def test_penalty_oracle_feas_reads_the_base_at_any_point():
    # every iterate is its own cache, so feasibility at one is read off its own base
    pf, prob = lsm_desk()
    spec = prob.spec
    rng = np.random.default_rng(4)
    x0 = spec.random_feasible(4).X + 0.01 * rng.standard_normal((spec.n, spec.p))
    step = 0.01 * rng.standard_normal((spec.n, spec.p))

    def residual(z):
        return float(np.linalg.norm(z.T @ spec.phi(z) - np.eye(spec.p)))

    oracle = PenaltyOracle(pf)
    x = oracle.iterate(x0)
    assert not x.X.flags.writeable and np.array_equal(x.X, x0)
    oracle.grad(x)
    phi = oracle.meter["phi"]
    assert oracle.feas(x) == residual(x.X)
    assert oracle.meter["phi"] == phi                             # read off the gradient's base
    y = oracle.iterate(x.X + step)                                # a finite-difference point
    assert y.counts is oracle.meter and np.array_equal(y.X, x.X + step)
    oracle.value(y)
    assert oracle.feas(x) == residual(x.X)                        # a trial value leaves it
    assert oracle.feas(y) == residual(y.X)                        # the trial point's own base
    assert oracle.meter["phi"] == phi + 1
    z = oracle.iterate(x.X + step)
    assert oracle.feas(z) == residual(z.X)                        # an iterate never valued
    assert oracle.meter["phi"] == phi + 2
    np.testing.assert_array_equal(oracle.displacement(x, y, 1.0, None, None), y.X - x.X)


def _count_array_equal(monkeypatch):
    compared = []
    array_equal = np.array_equal
    monkeypatch.setattr(penalty_mod.np, "array_equal",
                        lambda *a, **k: compared.append(1) or array_equal(*a, **k))
    return compared


def test_cdf_solve_compares_no_contents_and_reports_a_writable_X(monkeypatch):
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                                   "extrinsic_desk.cfg"))
    prob = prepare(cfg)[0].problem
    pf = op.PenaltyFunction(prob.spec, prob, cfg.beta)
    x0 = prob.spec.random_feasible(cfg.x0_seed)
    compared = _count_array_equal(monkeypatch)
    r = run_solver("cdf-gd", pf, x0, SolverConfig(grad_tol=1e-5))
    assert (r.status, r.iters) == (STATUS_GRAD_TOL, 153)
    assert compared == []
    assert r.X.flags.writeable
    r.X[0, 0] += 1.0                                       # the report owns its copy
    assert op.penalty_value(pf, r.X) != r.fval


@pytest.mark.parametrize("solver_id", ["cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr", "rgd", "rcg"])
def test_store_takes_the_same_iterates(solver_id):
    # the oracles reuse what the store holds for a point, and a store-less
    # call forms it afresh by the same operations, so the solves agree bit for bit
    cfg = SolverConfig(grad_tol=1e-5, max_iter=50000)
    for (pf, prob), x0_seed in [(lsm_desk(), 3), (tjfd_desk(), 5)]:
        x0 = prob.spec.random_feasible(x0_seed)
        bare = op.PenaltyFunction(prob.spec, ignoring_store(prob), pf.beta)
        r_store, r_bare = (run_solver(solver_id, q, x0, cfg) for q in (pf, bare))
        assert r_store.status == STATUS_GRAD_TOL
        assert (r_store.status, r_store.iters, repr(r_store.fval)) == \
            (r_bare.status, r_bare.iters, repr(r_bare.fval))
        np.testing.assert_array_equal(r_store.X, r_bare.X)


@pytest.mark.parametrize("solver_id", ["cdf-gd", "cdf-cg", "rgd"])
def test_separate_grad_oracle_only_where_no_value_was_taken(solver_id):
    # a gradient at a valued point reads the product A X N that the value
    # left in the point's store; only the secant probes of cdf-cg, which are
    # never valued, find the store empty and form it on their own
    pf, prob = lsm_desk()
    calls = {"f": 0, "grad": 0, "fresh": 0}
    f, grad = prob.f, prob.grad

    def counting_f(X, store=None):
        calls["f"] += 1
        return f(X, store)

    def counting_grad(X, store=None):
        calls["grad"] += 1
        calls["fresh"] += not store
        return grad(X, store)

    prob.f, prob.grad = counting_f, counting_grad
    r = run_solver(solver_id, pf, prob.spec.random_feasible(3),
                   SolverConfig(grad_tol=1e-5, max_iter=50000))
    assert r.status == STATUS_GRAD_TOL
    assert calls["grad"] == r.phase_counts["gradient"]
    assert calls["fresh"] == (r.iters if solver_id == "cdf-cg" else 0)
    assert calls["f"] >= r.iters + 1


@pytest.mark.parametrize("solver_id,per_iter", [
    ("cdf-gd", 1), ("cdf-cg", 2), ("cdf-lbfgs", 1), ("rgd", 1), ("rcg", 1)])
def test_one_gradient_per_accepted_point(solver_id, per_iter):
    # the start, each accepted point and (cdf-cg) each secant probe; the
    # report reuses the last gradient of the loop
    pf, prob = lsm_desk()
    r = run_solver(solver_id, pf, prob.spec.random_feasible(3),
                   SolverConfig(grad_tol=1e-5, max_iter=50000))
    assert r.status == STATUS_GRAD_TOL
    assert r.phase_counts["gradient"] == per_iter * r.iters + 1


@pytest.mark.parametrize("solver_id", ["cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr", "rgd", "rcg"])
def test_trace_rows_count_the_trials_of_their_iteration(solver_id):
    # the "trials" column holds the objective evaluations an iteration took,
    # and the last one, "hessvecs", the Hessian-vector products it formed,
    # which sum to the solve's phase count; both are 0 on the start row, and
    # "hessvecs" is 0 for every line-search solver
    pf, prob = lsm_desk()
    r = run_solver(solver_id, pf, prob.spec.random_feasible(3),
                   SolverConfig(grad_tol=1e-5, max_iter=50000))
    assert r.status == STATUS_GRAD_TOL
    assert all(len(row) == len(TRACE_HEADER) for row in r.trace)
    assert TRACE_HEADER[:4] == ["iter", "value", "grad_norm", "feas"]
    assert TRACE_HEADER[-2:] == ["trials", "hessvecs"]
    trials = [row[-2] for row in r.trace]
    assert trials[0] == 0 and min(trials[1:]) >= 1
    assert sum(trials) == r.phase_counts["objective"] - 1
    hessvecs = [row[-1] for row in r.trace]
    assert hessvecs[0] == 0 and sum(hessvecs) == r.phase_counts["hessvec"]
    if solver_id == "cdf-tr":
        assert min(hessvecs[1:]) >= 1
    else:
        assert sum(hessvecs) == 0


def test_rgd_checks_a_start_of_another_spec_on_its_own():
    # a point of another manifold is checked like an array start, and a
    # point of the same manifold from another spec object takes the same iterates
    prob = op.build_extrinsic_mean(12, 4, k=6, p_k=2, n_samples=10, seed=0)
    with pytest.raises(op.FeasibilityError):
        minimize("rgd", ManifoldOracle(prob, prob.spec), op.stiefel(12, 4).random_feasible(0))
    pf, prob = lsm_desk()
    own = prob.spec.random_feasible(3)
    twin = op.FeasiblePoint(op.symplectic_stiefel(20, 4), own.X)
    assert twin.spec is not prob.spec
    cfg = SolverConfig(grad_tol=1e-5, max_iter=50000)
    a, b = (minimize("rgd", ManifoldOracle(prob, prob.spec), x, cfg) for x in (own, twin))
    assert a.status == STATUS_GRAD_TOL and (a.iters, repr(a.fval)) == (b.iters, repr(b.fval))
    np.testing.assert_array_equal(a.X, b.X)


def test_manifold_oracle_checks_every_start_to_1e_8(monkeypatch):
    # a point of the spec within 1e-8 is taken as it is, with no new phi; an
    # off-manifold penalty cache and a point checked only to 1e-5 are refused
    _, prob = lsm_desk()
    spec = prob.spec
    oracle = ManifoldOracle(prob, spec)
    Q = spec.random_feasible(3)
    loose = op.FeasiblePoint(spec, (1.0 + 1e-7) * Q.X, tol=1e-5)
    assert 1e-8 < loose.feas <= 1e-5
    off = op.EvalCache(spec, Q.X + 0.01)
    calls = []
    phi = spec.phi
    monkeypatch.setattr(spec, "phi", lambda Y: calls.append(1) or phi(Y))
    assert oracle.iterate(Q) is Q and calls == []
    for start in (off, loose):
        with pytest.raises(op.FeasibilityError):
            oracle.iterate(start)
    with pytest.raises(op.FeasibilityError):
        minimize("rgd", oracle, loose)


def test_solver_hooks_are_looked_up_at_call_time(monkeypatch):
    # per-layer tracing replaces these module globals while a solve runs
    hits = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            hits[name] = hits.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    hooks = ("penalty_value", "penalty_gradient", "penalty_hessvec",
             "riemannian_gradient", "vector_transport")
    for name in hooks:
        monkeypatch.setattr(solvers_mod, name, counting(name, getattr(solvers_mod, name)))
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(3)
    for sid in ("cdf-gd", "cdf-tr", "rgd"):
        run_solver(sid, pf, x0, SolverConfig(grad_tol=1e-4, max_iter=5000))
    assert sorted(hits) == sorted(hooks)


# -------------------------------------------------------- Riemannian solvers

def test_rgd_constant_objective_stops_immediately():
    spec = op.stiefel(6, 2)
    prob = op.Problem(spec, lambda X, store=None: 1.0,
                      lambda X, store=None: np.zeros_like(np.asarray(X)),
                      name="const")
    r = minimize("rgd", ManifoldOracle(prob, spec), spec.random_feasible(0),
                 SolverConfig(grad_tol=1e-6))
    assert r.status == STATUS_GRAD_TOL and r.iters == 0


def test_manifold_oracle_moves_to_a_point_with_its_normal_factorization(monkeypatch):
    # the decomposition the projections at the new point read is booked to
    # the retraction phase, so the transports and the gradient there form none
    spec = op.symplectic_stiefel(12, 4)
    prob = op.Problem(spec, lambda X, store=None: float(np.vdot(X, X)),
                      lambda X, store=None: 2.0 * X, name="norm")
    oracle = solvers_mod.ManifoldOracle(prob, spec)
    x = spec.random_feasible(1)
    step = op.random_tangent(spec, x, 2)
    clock = PhaseClock()
    xn = oracle.trial(x, (0.1 / np.linalg.norm(step)) * step, clock)
    assert clock.counts["retraction"] == 1 and xn.normal is not None
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M) or eigh(M))
    oracle.grad(xn)
    oracle.transport(xn, step, clock)
    assert calls == []


def test_rgd_rayleigh_quotient_reaches_smallest_eigenvalues():
    rng = np.random.default_rng(2)
    spec = op.stiefel(8, 2)
    M = rng.standard_normal((8, 8))
    A = M @ M.T

    prob = op.Problem(spec, lambda X, store=None: float(np.vdot(X, A @ X)),
                      lambda X, store=None: 2.0 * (A @ X), name="rayleigh")
    r = minimize("rgd", ManifoldOracle(prob, spec), spec.random_feasible(4),
                 SolverConfig(grad_tol=1e-9, max_iter=20000))
    target = np.sort(np.linalg.eigvalsh(A))[:2].sum()
    np.testing.assert_allclose(r.fval, target, atol=1e-8)


def test_rcg_rayleigh_quotient_reaches_smallest_eigenvalues():
    rng = np.random.default_rng(3)
    spec = op.stiefel(8, 2)
    M = rng.standard_normal((8, 8))
    A = M @ M.T
    prob = op.Problem(spec, lambda X, store=None: float(np.vdot(X, A @ X)),
                      lambda X, store=None: 2.0 * (A @ X), name="rayleigh")
    r = minimize("rcg", ManifoldOracle(prob, spec), spec.random_feasible(5),
                 SolverConfig(grad_tol=1e-9, max_iter=20000))
    target = np.sort(np.linalg.eigvalsh(A))[:2].sum()
    np.testing.assert_allclose(r.fval, target, atol=1e-8)


def test_riemannian_iterates_stay_feasible():
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(6)
    for sid in ("rgd", "rcg"):
        r = minimize(sid, ManifoldOracle(prob, prob.spec), x0,
                     SolverConfig(grad_tol=1e-5, max_iter=20000))
        assert r.status == STATUS_GRAD_TOL
        assert max(row[3] for row in r.trace) <= 1e-9


def test_cross_solver_objective_agreement_on_extrinsic_mean():
    prob = op.build_extrinsic_mean(20, 3, k=12, p_k=2, n_samples=50, seed=1)
    pf = op.PenaltyFunction(prob.spec, prob, 0.5)
    x0 = prob.spec.random_feasible(7)
    vals = []
    for sid in ("cdf-lbfgs", "rgd", "rcg"):
        r = run_solver(sid, pf, x0, SolverConfig(grad_tol=1e-7, max_iter=50000))
        if sid.startswith("cdf"):
            point, _ = op.postprocess(prob.spec, r.X, eps_f=1e-12)
            vals.append(prob.f(point.X))
        else:
            vals.append(r.fval)
    spread = max(vals) - min(vals)
    assert spread <= 1e-6 * (1.0 + abs(vals[0]))


# ------------------------------------------------------------- housekeeping

def test_deterministic_traces():
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(8)
    cfg = SolverConfig(grad_tol=1e-5, max_iter=20000)
    for sid in ("cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr", "rgd", "rcg"):
        r1 = run_solver(sid, pf, x0, cfg)
        r2 = run_solver(sid, pf, x0, cfg)
        t1 = [row[:4] for row in r1.trace]
        t2 = [row[:4] for row in r2.trace]
        assert t1 == t2, sid
        np.testing.assert_array_equal(r1.X, r2.X)


def test_cdf_solvers_never_touch_retraction_or_transport():
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(9)
    for sid in ("cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr"):
        r = run_solver(sid, pf, x0, SolverConfig(grad_tol=1e-4, max_iter=5000))
        assert r.phase_counts["retraction"] == 0
        assert r.phase_counts["transport"] == 0
        assert r.phase_seconds["retraction"] == 0.0
        assert r.phase_seconds["transport"] == 0.0


def test_riemannian_solvers_do_use_retraction_and_transport():
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(10)
    for sid in ("rgd", "rcg"):
        r = minimize(sid, ManifoldOracle(prob, prob.spec), x0,
                     SolverConfig(grad_tol=1e-4, max_iter=5000))
        assert r.phase_counts["retraction"] > 0
        assert r.phase_counts["transport"] > 0


def test_riemannian_solve_reports_a_writable_copy_of_its_point():
    pf, prob = lsm_desk()
    r = run_solver("rgd", pf, prob.spec.random_feasible(10), SolverConfig(grad_tol=1e-4))
    assert r.status == STATUS_GRAD_TOL and r.X.flags.writeable
    assert np.array_equal(r.X, r.point.X) and not r.point.X.flags.writeable
    r.X[0, 0] += 1.0                                       # the report owns its copy
    assert not np.array_equal(r.X, r.point.X)


def test_grad_norm_matches_trace_tail():
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(11)
    for sid in ("cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr", "rgd", "rcg"):
        r = run_solver(sid, pf, x0, SolverConfig(grad_tol=1e-5, max_iter=20000))
        assert abs(r.grad_norm - r.trace[-1][2]) <= 1e-12 * max(1.0, r.grad_norm)


def test_stationarity_report_matches_solver_trace_tail():
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(14)
    r = run_solver("cdf-lbfgs", pf, x0, SolverConfig(grad_tol=1e-6, max_iter=20000))
    rep = op.stationarity_report(pf, r.X)
    # the solver's last gradient reads the Gram matrix its point carries
    # from the raw step, the report's a fresh one, so they agree to the
    # rounding of the gradient's terms (norm 0.17, times eps 3.7e-17), not
    # to 1e-12 of its 7.6e-7 norm: they differ by 1.0e-18 here
    np.testing.assert_allclose(rep["grad_h"], r.trace[-1][2], rtol=1e-12, atol=1e-16)
    np.testing.assert_allclose(rep["feas"], r.trace[-1][3], rtol=1e-9, atol=1e-15)
    assert rep["grad_f_post"] <= 10 * r.grad_norm + 1e-8


def test_merit_sequence_nonincreasing():
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(12)
    r = minimize("cdf-gd", PenaltyOracle(pf), x0.X, SolverConfig(grad_tol=1e-5, max_iter=20000))
    hs = [row[1] for row in r.trace]
    eta, C, Q = 0.85, hs[0], 1.0
    for h in hs[1:]:
        Qn = eta * Q + 1.0
        Cn = (eta * Q * C + h) / Qn
        assert Cn <= C + 1e-12 * max(1.0, abs(C))
        C, Q = Cn, Qn


def test_phase_seconds_bounded_by_total():
    pf, prob = lsm_desk()
    x0 = prob.spec.random_feasible(13)
    r = run_solver("rgd", pf, x0, SolverConfig(grad_tol=1e-5, max_iter=5000))
    assert sum(r.phase_seconds.values()) <= r.total_time + 1e-6


def test_line_search_failure_is_a_status():
    def f(x):
        return float(x[0]) if x[0] >= 0 else float("nan")

    def g(x):
        return np.ones(1)

    r = minimize("cdf-gd", FunctionOracle(f, g), np.zeros(1),
                 SolverConfig(grad_tol=1e-10, max_iter=50))
    assert r.status == STATUS_LS_FAIL


def test_trust_region_rejects_nan_trial_values():
    # finite only at the start: every trial point is rejected until the radius collapses
    x0 = np.ones(2)

    def f(x):
        return float(x @ x) if np.array_equal(x, x0) else float("nan")

    orc = FunctionOracle(f, lambda x: 2.0 * x, lambda x, v: 2.0 * v)
    r = minimize("cdf-tr", orc, x0, SolverConfig(grad_tol=1e-10, time_limit=5.0))
    assert r.status == STATUS_RADIUS_COLLAPSE and r.iters == 0
    assert r.total_time < 1.0


def test_time_limit_status():
    orc = quad_oracle(np.eye(3))
    r = minimize("cdf-gd", orc, np.full(3, 5.0), SolverConfig(grad_tol=1e-16, time_limit=1e-9))
    assert r.status == STATUS_TIME_LIMIT


def test_unknown_solver_id_raises():
    pf, prob = lsm_desk()
    with pytest.raises(KeyError):
        run_solver("newton", pf, prob.spec.random_feasible(0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


@pytest.mark.parametrize("max_iter", [2.5, 10.0, "10"])
def test_config_rejects_a_max_iter_that_is_not_an_integer(max_iter):
    # a float budget would pass the positivity test and fail inside range()
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=max_iter)


# ------------------------------------------------- the status contract sweep

SWEEP_SPECS = dict(battery_specs(), **{
    "stiefel-p=n": op.stiefel(6, 6),
    "stiefel-p=1": op.stiefel(7, 1),
    "tensor-stiefel-l=1": op.tensor_stiefel(5, 2, 1),
})
# a typed exception of the library, the one other way a solve may end
TYPED_ERRORS = (op.FeasibilityError, op.RetractError, op.ThetaDegenerateError,
                op.PostprocessDivergence, op.UnsupportedOperation)
KNOWN_STATUSES = (STATUS_GRAD_TOL, STATUS_LS_FAIL, STATUS_RADIUS_COLLAPSE, STATUS_MAX_ITER)


@pytest.mark.parametrize("spec", SWEEP_SPECS.values(), ids=SWEEP_SPECS)
def test_every_solve_ends_in_a_known_status_or_a_typed_error(spec):
    # every family, the edge sizes p = n, p = 1 and l = 1, a small, a unit and
    # a large beta, and all six solvers: each solve ends in a known status
    # with finite fields, or raises a typed error; a far trial of cdf-lbfgs at
    # beta = 1e4 overflows the toy objective and must be a rejected trial
    prob = op.toy_problem(spec, seed=1)
    x0 = spec.random_feasible(0)
    cfg = SolverConfig(grad_tol=1e-8, max_iter=200)
    for beta in (1e-4, 1.0, 1e4):
        pf = op.PenaltyFunction(spec, prob, beta)
        for solver_id in op.SOLVERS:
            try:
                r = run_solver(solver_id, pf, x0, cfg)
            except TYPED_ERRORS:
                continue
            assert r.status in KNOWN_STATUSES, (solver_id, beta, r.status)
            assert np.isfinite([r.fval, r.grad_norm, r.feas_norm]).all(), (solver_id, beta)
            assert (r.iters == cfg.max_iter) == (r.status == STATUS_MAX_ITER)
            assert (r.grad_norm <= cfg.grad_tol) == (r.status == STATUS_GRAD_TOL)
