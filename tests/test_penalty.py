import numpy as np
import pytest

import orthopt as op
from orthopt.diagnostics import desk_specs
from orthopt.manifolds import EvalCache, PostprocessDivergence, riemannian_gradient
from orthopt.penalty import (
    PenaltyFunction,
    UnsupportedOperation,
    dA,
    dA_adjoint,
    dC,
    dC_adjoint,
    dCA,
    dissolve,
    penalty_gradient,
    penalty_hessvec,
    penalty_value,
    postprocess,
    stationarity_report,
)
from orthopt.problems import Problem, toy_problem
from orthopt.solvers import ManifoldOracle, SolverConfig, minimize

SPECS = desk_specs()


@pytest.fixture(params=SPECS, ids=[s.name for s in SPECS])
def spec(request):
    return request.param


def _unit(spec, seed):
    rng = np.random.default_rng(seed)
    V = spec.random_ambient(rng)
    return V / np.linalg.norm(V)


def _near_point(spec, seed):
    # generic off-manifold point in the subspace, kept near the feasible set
    return spec.random_feasible(seed).X + 0.1 * _unit(spec, seed + 1)


# ------------------------------------------------------------------- dissolve

def test_dissolve_fixes_feasible_points(spec):
    X = spec.random_feasible(0).X
    assert np.linalg.norm(dissolve(spec, X) - X) <= 1e-12 * np.linalg.norm(X)


def test_dissolve_scalar_case():
    spec = op.stiefel(2, 1)
    out = dissolve(spec, np.array([[2.0], [0.0]]))
    np.testing.assert_allclose(out, [[-1.0], [0.0]])


def test_dissolve_quadratic_contraction_witness():
    spec = op.stiefel(2, 1)
    eps = 1e-3
    x = np.array([[1.0 + eps], [0.0]])
    c0 = np.linalg.norm(x.T @ x - 1.0)
    c1 = np.linalg.norm(dissolve(spec, x).T @ dissolve(spec, x) - 1.0)
    np.testing.assert_allclose(c1 / c0 ** 2, 0.75, atol=5e-3)


def test_dissolve_contraction_slope(spec):
    X = spec.random_feasible(1).X
    Z = _unit(spec, 2)
    logs = []
    for t in (1e-1, 1e-2, 1e-3):
        Y = X + t * Z
        c0 = np.linalg.norm(Y.mT @ spec.phi(Y) - np.eye(spec.p))
        AY = dissolve(spec, Y)
        c1 = np.linalg.norm(AY.mT @ spec.phi(AY) - np.eye(spec.p))
        logs.append((np.log(c0), np.log(c1)))
    slope = np.polyfit([a for a, _ in logs], [b for _, b in logs], 1)[0]
    assert 1.8 <= slope <= 2.2


# ------------------------------------------------------------ differentials

def test_dC_zero_direction(spec):
    X = _near_point(spec, 3)
    np.testing.assert_allclose(dC(spec, X, np.zeros_like(X)), 0.0)


def test_dC_matches_central_differences(spec):
    X = _near_point(spec, 4)
    Z = _unit(spec, 5)
    t = 1e-5
    fd = ((X + t * Z).mT @ spec.phi(X + t * Z) - (X - t * Z).mT @ spec.phi(X - t * Z)) / (2 * t)
    an = dC(spec, X, Z)
    assert np.linalg.norm(fd - an) <= 1e-6 * max(1.0, np.linalg.norm(an))


def test_dC_adjoint_pairing(spec):
    rng = np.random.default_rng(6)
    X = _near_point(spec, 6)
    for _ in range(20):
        Z = _unit(spec, rng.integers(1 << 30))
        T = spec.random_gram(rng)
        lhs = np.vdot(dC(spec, X, Z), T)
        rhs = np.vdot(Z, dC_adjoint(spec, X, T))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_dA_zero_direction(spec):
    X = _near_point(spec, 7)
    np.testing.assert_allclose(dA(spec, X, np.zeros_like(X)), 0.0)


def test_dA_matches_central_differences(spec):
    X = _near_point(spec, 8)
    Z = _unit(spec, 9)
    t = 1e-5
    fd = (dissolve(spec, X + t * Z) - dissolve(spec, X - t * Z)) / (2 * t)
    an = dA(spec, X, Z)
    assert np.linalg.norm(fd - an) <= 1e-6 * max(1.0, np.linalg.norm(an))


def test_dA_adjoint_pairing(spec):
    rng = np.random.default_rng(10)
    X = _near_point(spec, 10)
    for _ in range(20):
        Z = _unit(spec, rng.integers(1 << 30))
        T = _unit(spec, rng.integers(1 << 30))
        lhs = np.vdot(dA(spec, X, Z), T)
        rhs = np.vdot(Z, dA_adjoint(spec, X, T))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_dA_idempotent_on_manifold(spec):
    X = spec.random_feasible(11).X
    for s in range(10):
        Z = _unit(spec, 400 + s)
        DZ = dA(spec, X, Z)
        assert np.linalg.norm(dA(spec, X, DZ) - DZ) <= 1e-11
        T = _unit(spec, 500 + s)
        DT = dA_adjoint(spec, X, T)
        assert np.linalg.norm(dA_adjoint(spec, X, DT) - DT) <= 1e-11


def test_dCA_vanishes_on_manifold(spec):
    X = spec.random_feasible(12).X
    pt = spec.random_feasible(12)
    rng = np.random.default_rng(13)
    for s in range(5):
        Z = _unit(spec, 600 + s)
        assert np.linalg.norm(dCA(spec, X, Z)) <= 1e-11
    # tangent and normal directions specifically
    Zt = op.random_tangent(spec, pt, 14)
    T = spec.random_gram(rng)
    Zn = pt.phiX @ spec.gen_sym(T)
    for Z in (Zt, Zn):
        assert np.linalg.norm(dCA(spec, X, Z)) <= 1e-11 * max(1.0, np.linalg.norm(Z))


def test_dCA_matches_central_differences_off_manifold(spec):
    X = _near_point(spec, 15)
    Z = _unit(spec, 16)
    t = 1e-5

    def CA(Y):
        AY = dissolve(spec, Y)
        return AY.mT @ spec.phi(AY) - np.eye(spec.p)

    fd = (CA(X + t * Z) - CA(X - t * Z)) / (2 * t)
    an = dCA(spec, X, Z)
    assert np.linalg.norm(fd - an) <= 1e-6 * max(1.0, np.linalg.norm(an))


# ------------------------------------------------------------ penalty value

def test_penalty_value_equals_objective_on_manifold(spec):
    prob = toy_problem(spec, 17)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = spec.random_feasible(17).X
    np.testing.assert_allclose(penalty_value(pf, X), prob.f(X), rtol=1e-12)


def test_penalty_value_pure_feasibility_term(spec):
    zero = Problem(spec, lambda X, store=None: 0.0,
                   lambda X, store=None: np.zeros_like(np.asarray(X)),
                   name="zero")
    pf = PenaltyFunction(spec, zero, 2.5)
    X = _near_point(spec, 18)
    C = X.mT @ spec.phi(X) - np.eye(spec.p)
    np.testing.assert_allclose(penalty_value(pf, X), 1.25 * np.vdot(C, C), rtol=1e-12)


def test_penalty_decreases_under_dissolving_near_manifold(spec):
    prob = toy_problem(spec, 19)
    pf = PenaltyFunction(spec, prob, 50.0)
    Y = spec.random_feasible(19).X + 0.05 * _unit(spec, 20)
    assert penalty_value(pf, dissolve(spec, Y)) <= penalty_value(pf, Y) + 1e-12


def test_penalty_rejects_nonpositive_weight(spec):
    with pytest.raises(ValueError):
        PenaltyFunction(spec, toy_problem(spec, 0), 0.0)


@pytest.mark.parametrize("beta", [float("inf"), float("nan"), 0.0, -1.0])
def test_penalty_rejects_a_non_finite_or_nonpositive_weight(beta):
    spec = op.stiefel(6, 2)
    with pytest.raises(ValueError, match="positive and finite"):
        PenaltyFunction(spec, toy_problem(spec, 0), beta)


# --------------------------------------------------------- penalty gradient

def test_penalty_gradient_matches_central_differences(spec):
    prob = toy_problem(spec, 21)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = _near_point(spec, 21)
    g = penalty_gradient(pf, X)
    t = 1e-5
    for s in range(5):
        V = _unit(spec, 700 + s)
        fd = (penalty_value(pf, X + t * V) - penalty_value(pf, X - t * V)) / (2 * t)
        assert abs(fd - np.vdot(g, V)) <= 1e-6 * max(1.0, abs(fd))


def test_penalty_gradient_zero_objective_on_manifold(spec):
    zero = Problem(spec, lambda X, store=None: 0.0,
                   lambda X, store=None: np.zeros_like(np.asarray(X)),
                   name="zero")
    pf = PenaltyFunction(spec, zero, 1.0)
    X = spec.random_feasible(22).X
    assert np.linalg.norm(penalty_gradient(pf, X)) <= 1e-10


def test_penalty_gradient_work_counters(spec):
    prob = toy_problem(spec, 23)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = _near_point(spec, 23)
    cache = EvalCache(spec, X)
    penalty_gradient(pf, X, cache)
    assert cache.counts == {"matmul": 6, "phi": 1, "grad_f": 1, "f": 0}
    # value at the same point reuses everything but the objective call
    penalty_value(pf, X, cache)
    assert cache.counts == {"matmul": 6, "phi": 1, "grad_f": 1, "f": 1}
    # a repeat reuses the cached base, oracle calls and p x p pair; only
    # the three products of the assembly rerun
    penalty_gradient(pf, X, cache)
    assert cache.counts["matmul"] == 9 and cache.counts["grad_f"] == 1


def test_penalty_gradient_is_the_adjoint_sum(spec):
    # grad h = dA(X)*[grad f(A(X))] + beta dC(X)*[C], through the public adjoints
    prob = toy_problem(spec, 25)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = _near_point(spec, 25)
    C = X.mT @ spec.phi(X) - np.eye(spec.p)
    expected = dA_adjoint(spec, X, prob.grad(dissolve(spec, X))) + pf.beta * dC_adjoint(spec, X, C)
    assert np.array_equal(penalty_gradient(pf, X), expected)


def test_penalty_gradient_vanishes_iff_projected_gradient_does(spec):
    # drive the constrained problem to stationarity, then cross-check
    prob = toy_problem(spec, 24)
    pf = PenaltyFunction(spec, prob, 0.7)
    report = minimize("rgd", ManifoldOracle(prob, spec), spec.random_feasible(24),
                      SolverConfig(grad_tol=1e-11, max_iter=20000))
    X = report.point.X
    rg = np.linalg.norm(riemannian_gradient(spec, report.point, prob.grad(X)))
    assert rg <= 1e-9
    assert np.linalg.norm(penalty_gradient(pf, X)) <= 1e-9


# ---------------------------------------------------------- penalty Hessian

def test_penalty_hessvec_zero_direction(spec):
    prob = toy_problem(spec, 25)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = _near_point(spec, 25)
    np.testing.assert_allclose(penalty_hessvec(pf, X, np.zeros_like(X)), 0.0, atol=1e-14)


def test_penalty_hessvec_matches_fd_of_gradient(spec):
    prob = toy_problem(spec, 26)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = _near_point(spec, 26)
    V = _unit(spec, 27)
    t = 1e-5
    fd = (penalty_gradient(pf, X + t * V) - penalty_gradient(pf, X - t * V)) / (2 * t)
    hv = penalty_hessvec(pf, X, V)
    assert np.linalg.norm(fd - hv) <= 1e-5 * max(1.0, np.linalg.norm(hv))


def test_penalty_hessvec_symmetric_form(spec):
    prob = toy_problem(spec, 28)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = _near_point(spec, 28)
    for s in range(5):
        V1, V2 = _unit(spec, 800 + s), _unit(spec, 900 + s)
        lhs = np.vdot(V1, penalty_hessvec(pf, X, V2))
        rhs = np.vdot(V2, penalty_hessvec(pf, X, V1))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_penalty_hessvec_zero_objective_reduction(spec):
    zero = Problem(spec, lambda X, store=None: 0.0,
                   lambda X, store=None: np.zeros_like(np.asarray(X)),
                   hessvec=lambda X, V, store=None: np.zeros_like(np.asarray(V)),
                   name="zero")
    beta = 1.3
    pf = PenaltyFunction(spec, zero, beta)
    X = spec.random_feasible(29).X
    V = _unit(spec, 30)
    phiX, phiV = spec.phi(X), spec.phi(V)
    expected = beta * (phiX @ spec.gen_sym(V.mT @ phiX) + phiX @ spec.gen_sym(X.mT @ phiV))
    np.testing.assert_allclose(penalty_hessvec(pf, X, V), expected, atol=1e-10)


def test_penalty_hessvec_work_accounting(spec):
    # with phi(X), the Gram matrix, grad f(A(X)) and the gradient's p x p
    # pair cached at X, one product costs the objective's Hessian oracle,
    # 1 phi application and 9 products
    prob = toy_problem(spec, 32)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = _near_point(spec, 32)
    cache = EvalCache(spec, X)
    penalty_gradient(pf, X, cache)
    before = dict(cache.counts)
    penalty_hessvec(pf, X, _unit(spec, 33), cache)
    assert {k: n - before[k] for k, n in cache.counts.items()} == \
        {"matmul": 9, "phi": 1, "grad_f": 0, "f": 0}


def test_penalty_hessvec_same_bits_with_or_without_a_prior_gradient(spec):
    # the p x p pair a gradient leaves in the base is the one a Hessian-vector
    # product forms itself at a base without it
    prob = toy_problem(spec, 34)
    pf = PenaltyFunction(spec, prob, 0.7)
    X, V = _near_point(spec, 34), _unit(spec, 35)
    cache = EvalCache(spec, X)
    penalty_gradient(pf, X, cache)
    assert np.array_equal(penalty_hessvec(pf, X, V, cache), penalty_hessvec(pf, X, V))


def test_penalty_hessvec_requires_hessian_oracle(spec):
    prob = Problem(spec, lambda X, store=None: 0.0,
                   lambda X, store=None: np.zeros_like(np.asarray(X)),
                   name="gradonly")
    pf = PenaltyFunction(spec, prob, 1.0)
    with pytest.raises(UnsupportedOperation):
        penalty_hessvec(pf, spec.random_feasible(0).X, _unit(spec, 1))


# ------------------------------------------------------------ postprocessing

def test_postprocess_zero_rounds_when_feasible(spec):
    X = spec.random_feasible(31).X
    point, rounds = postprocess(spec, X, eps_f=1e-10)
    assert rounds == 0
    np.testing.assert_array_equal(point.X, X)


def test_postprocess_quadratic_rounds():
    spec = op.stiefel(10, 3)
    rng = np.random.default_rng(32)
    X = spec.random_feasible(32).X + 1e-3 * rng.standard_normal((10, 3))
    point, rounds = postprocess(spec, X, eps_f=1e-12)
    assert rounds <= 3
    assert point.feas < 1e-12


def test_postprocess_applies_phi_once_per_round(spec, monkeypatch):
    # the residual and the next dissolve share one base point per round
    X = spec.random_feasible(37).X + 1e-2 * _unit(spec, 38)
    calls = []
    phi = spec.phi
    monkeypatch.setattr(spec, "phi", lambda Y: calls.append(1) or phi(Y))
    point, rounds = postprocess(spec, X, eps_f=1e-12)
    assert rounds >= 2 and point.feas < 1e-12
    assert len(calls) == rounds + 1


def test_a_base_forms_A_X_only_when_it_is_read(spec):
    # a checked point pays 1 phi and 1 product for its residual, and the last
    # base of a post-processing pays no A(X); A(X) itself comes at its first
    # read, 1 product, with the bits of the public dissolve
    X = spec.random_feasible(37).X
    pt = op.FeasiblePoint(spec, X)
    assert pt.counts == {"matmul": 1, "phi": 1, "grad_f": 0, "f": 0}
    np.testing.assert_array_equal(pt.AX, op.dissolve(spec, X))
    pt.AX
    assert pt.counts == {"matmul": 2, "phi": 1, "grad_f": 0, "f": 0}
    point, rounds = postprocess(spec, X + 1e-2 * _unit(spec, 38), eps_f=1e-12)
    assert rounds >= 2
    assert point.counts == {"matmul": 2 * rounds + 1, "phi": rounds + 1, "grad_f": 0, "f": 0}


@pytest.mark.parametrize("eps_f", [float("nan"), 0.0, -1e-12, float("inf")])
def test_postprocess_rejects_bad_eps_f(eps_f):
    spec = op.stiefel(6, 2)
    with pytest.raises(ValueError):
        postprocess(spec, spec.random_feasible(0).X, eps_f=eps_f)


def test_postprocess_divergence_carries_trace(spec):
    X = 3.0 * spec.random_feasible(33).X
    with pytest.raises(PostprocessDivergence) as err:
        postprocess(spec, X, eps_f=1e-12)
    assert len(err.value.trace) >= 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_postprocess_non_finite_entry_diverges(bad):
    # a NaN residual fails every comparison, so it must not read as
    # converged; it stops as an infinite one does
    spec = op.stiefel(6, 2)
    X = spec.random_feasible(0).X.copy()
    X[0, 0] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(PostprocessDivergence, match="diverged") as err:
        postprocess(spec, X)
    assert len(err.value.trace) == 1


def test_postprocess_stops_at_a_fixed_point_off_the_manifold(spec):
    # A(0) = 0 with ||C|| > 0: the first round does not lower the residual,
    # so the loop gives up there instead of after POSTPROCESS_MAX_ROUNDS
    Z = np.zeros_like(spec.random_feasible(0).X)
    with pytest.raises(PostprocessDivergence, match="not lowered") as err:
        postprocess(spec, Z)
    trace = err.value.trace
    assert len(trace) == 2 and trace[0] == trace[1] > 0


def test_postprocess_gives_up_after_its_round_budget(monkeypatch):
    # each round lowers the residual, but one round is not enough for 1e-12
    monkeypatch.setattr(op.manifolds, "POSTPROCESS_MAX_ROUNDS", 1)
    spec = op.stiefel(6, 2)
    X = spec.random_feasible(0).X + 1e-2
    with pytest.raises(PostprocessDivergence, match="after 1 rounds") as err:
        postprocess(spec, X)
    trace = err.value.trace
    assert len(trace) == 2 and 1e-12 < trace[1] < trace[0]


# --------------------------------------------------------- stationarity report

def test_stationarity_report_fields(spec):
    prob = toy_problem(spec, 34)
    pf = PenaltyFunction(spec, prob, 0.7)
    X = spec.random_feasible(34).X + 1e-4 * _unit(spec, 35)
    rep = stationarity_report(pf, X)
    assert rep["feas_post"] < 1e-12
    assert rep["grad_h"] >= 0 and rep["grad_f_post"] >= 0
    np.testing.assert_allclose(
        rep["feas"], np.linalg.norm(X.mT @ spec.phi(X) - np.eye(spec.p)), rtol=1e-12)


def test_stationarity_report_forms_its_input_base_once(monkeypatch):
    # the post-processing starts from the gradient's cache: one phi for the
    # input's base and one per round, and the same values as the separate calls
    prob = op.build_lsm(20, 4)
    spec = prob.spec
    pf = PenaltyFunction(spec, prob, 0.5)
    X = spec.random_feasible(0).X + 1e-3 * np.random.default_rng(0).standard_normal((20, 4))
    calls = []
    phi = spec.phi
    monkeypatch.setattr(spec, "phi", lambda Y: calls.append(1) or phi(Y))
    rep = stationarity_report(pf, X)
    assert rep["rounds"] == 3 and len(calls) == 4
    monkeypatch.setattr(spec, "phi", phi)
    point, rounds = postprocess(spec, X)
    rg = riemannian_gradient(spec, point, prob.grad(point.X))
    assert (rep["grad_h"], rep["rounds"], rep["feas_post"]) == \
        (float(np.linalg.norm(penalty_gradient(pf, X))), rounds, point.feas)
    assert rep["feas"] == float(np.linalg.norm(X.mT @ phi(X) - np.eye(spec.p)))
    assert rep["grad_f_post"] == float(np.linalg.norm(rg))
    np.testing.assert_array_equal(rep["point"].X, point.X)


def test_penalty_evaluates_f_at_A_X_through_the_store_of_the_dissolved_point():
    # a point's store belongs to its own X: f(A(X)) leaves the store of X
    # empty and keeps A X N in the store of the point A(X), made once
    prob = op.build_lsm(20, 4, seed=0)
    spec = prob.spec
    pf = PenaltyFunction(spec, prob, 0.5)
    X = spec.random_feasible(0).X + 0.01
    cache = EvalCache(spec, X)
    penalty_value(pf, X, cache)
    moved = cache.dissolved()
    assert cache.store == {} and moved is cache.dissolved() and moved.X is cache.AX
    (AXN,) = moved.store.values()
    np.testing.assert_array_equal(2.0 * AXN, prob.grad(cache.AX))


def test_stationarity_report_reads_a_point_that_needs_no_round_afresh():
    # with 0 rounds the post-processed point is the gradient's own cache; its
    # store holds nothing of A(X), so grad f at the point is formed at X
    prob = op.build_lsm(20, 4, seed=0)
    spec = prob.spec
    pf = PenaltyFunction(spec, prob, 0.5)
    rep = stationarity_report(pf, spec.random_feasible(2).X)
    point = rep["point"]
    egrad = prob.grad(point.X)
    assert rep["rounds"] == 0 and not np.array_equal(point.X, point.AX)
    assert rep["grad_f_post"] == float(np.linalg.norm(riemannian_gradient(spec, point, egrad)))
    (AXN,) = point.store.values()
    np.testing.assert_array_equal(2.0 * AXN, egrad)


def test_stationarity_lower_bound_inequality(spec):
    # ||grad h||^2 >= ||grad (f о dissolve)||^2 + (beta/9)||C|| near the manifold
    prob = toy_problem(spec, 36)
    beta = 1e4
    pf = PenaltyFunction(spec, prob, beta)
    rng = np.random.default_rng(36)
    for s in range(20):
        Y = spec.random_feasible(s).X + 1e-3 * _unit(spec, 1000 + s)
        C = Y.mT @ spec.phi(Y) - np.eye(spec.p)
        gh = penalty_gradient(pf, Y)
        gg = gh - beta * dC_adjoint(spec, Y, C)
        assert np.vdot(gh, gh) >= np.vdot(gg, gg) + (beta / 9.0) * np.linalg.norm(C)


# ------------------------------------------------- a point wherever X is taken

def _report(pf, X):
    rep = stationarity_report(pf, X)
    return [rep[k] for k in ("grad_h", "feas", "grad_f_post", "feas_post", "rounds")] + [rep["point"].X]


# each public function that takes X, as a map from (spec, pf, Z, T, X) to the arrays it gives
POINT_CALLS = {
    "dissolve": lambda spec, pf, Z, T, X: [dissolve(spec, X)],
    "dA": lambda spec, pf, Z, T, X: [dA(spec, X, Z)],
    "dA_adjoint": lambda spec, pf, Z, T, X: [dA_adjoint(spec, X, Z)],
    "dC": lambda spec, pf, Z, T, X: [dC(spec, X, Z)],
    "dC_adjoint": lambda spec, pf, Z, T, X: [dC_adjoint(spec, X, T)],
    "dCA": lambda spec, pf, Z, T, X: [dCA(spec, X, Z)],
    "postprocess": lambda spec, pf, Z, T, X: [postprocess(spec, X)[0].X],
    "stationarity_report": lambda spec, pf, Z, T, X: _report(pf, X),
    "FeasiblePoint": lambda spec, pf, Z, T, X: [op.FeasiblePoint(spec, X, tol=1.0).X],
    "constraint": lambda spec, pf, Z, T, X: [op.constraint(spec, X)],
    "penalty_value": lambda spec, pf, Z, T, X: [penalty_value(pf, X)],
    "penalty_gradient": lambda spec, pf, Z, T, X: [penalty_gradient(pf, X)],
    "penalty_hessvec": lambda spec, pf, Z, T, X: [penalty_hessvec(pf, X, Z)],
    "retract": lambda spec, pf, Z, T, X: [op.retract(spec, X, Z).X],
}


@pytest.mark.parametrize("name", list(POINT_CALLS))
def test_a_point_and_its_X_give_the_same_bits(spec, name):
    # the function works at a copy of the point's X: nothing is written into
    # the point, and no returned array is one of its buffers
    args = (spec, PenaltyFunction(spec, toy_problem(spec, 0), 0.7), 1e-3 * _unit(spec, 5),
            spec.random_gram(np.random.default_rng(6)))
    pt = EvalCache(spec, _near_point(spec, 0))
    from_point, from_X = POINT_CALLS[name](*args, pt), POINT_CALLS[name](*args, pt.X)
    for a, b in zip(from_point, from_X, strict=True):
        np.testing.assert_array_equal(a, b)
        assert not np.shares_memory(a, pt.X)
    assert pt.store == {} and pt.phiX is None and pt._dissolved is None
