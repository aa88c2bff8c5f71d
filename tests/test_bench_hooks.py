"""The library names that bench/tracing.py wraps must exist, the solver
registry must keep the (route, rule) rows the bench scripts read, the
penalty cache must keep the contract the tracer reads, and a traced solve
must take the same iterates as an untraced one."""

import importlib.util
import os
from collections import Counter

import numpy as np
import pytest

import orthopt as op
import orthopt.solvers as solvers_mod
from orthopt.diagnostics import desk_specs
from orthopt.solvers import SolverConfig, run_solver

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _bench_module(name):
    path = os.path.join(BENCH_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _bench_module("tracing")


def test_registry_rows_are_route_and_rule_pairs():
    # bench/workloads.py reads the route as SOLVERS[sid][0], and bench/run.py
    # and bench/tracing.py sum the seconds of the "cdf" and "riemannian" routes
    for sid, row in op.SOLVERS.items():
        assert isinstance(row, tuple) and len(row) == 2, sid
        route, rule = row
        assert route in ("cdf", "riemannian") and isinstance(rule, type), sid
        assert callable(rule.step) and callable(rule.update), sid
    workloads = _bench_module("workloads")
    assert {op.SOLVERS[sid][0] for sid in workloads.CDF_SOLVERS} == {"cdf"}
    assert {op.SOLVERS[sid][0] for sid in workloads.RIEMANNIAN_SOLVERS} == {"riemannian"}
    assert set(workloads.CDF_SOLVERS + workloads.RIEMANNIAN_SOLVERS) == set(op.SOLVERS)
    with pytest.raises(KeyError, match="unknown solver"):
        op.minimize("sgd", solvers_mod.FunctionOracle(lambda x: 0.0, np.zeros_like), np.zeros(2))


def test_tracer_patch_targets_exist(tracing):
    for mod, attr, _ in tracing.MODULE_PATCHES:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"
    assert callable(solvers_mod.penalty_gradient)
    for spec in desk_specs():
        for attr, _ in tracing.SPEC_METHODS:
            assert callable(getattr(spec, attr, None)), f"{spec.name}.{attr}"


def _lsm_desk():
    prob = op.build_lsm(20, 4, seed=0)
    return op.PenaltyFunction(prob.spec, prob, 0.5), prob


@pytest.mark.parametrize("solver_id", ["cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr", "rgd", "rcg"])
def test_traced_solve_takes_the_untraced_iterates(tracing, solver_id):
    cfg = SolverConfig(grad_tol=1e-5, max_iter=20000)
    pf, prob = _lsm_desk()
    plain = run_solver(solver_id, pf, prob.spec.random_feasible(3), cfg)
    tracer = tracing.Tracer()
    pf, prob = _lsm_desk()
    tracer.instrument(prob)
    with tracer.installed():
        traced = run_solver(solver_id, pf, prob.spec.random_feasible(3), cfg)
    assert (traced.status, traced.iters, repr(traced.fval)) == \
        (plain.status, plain.iters, repr(plain.fval))
    names = {span[tracing.NAME] for span in tracer.spans}
    assert "manifolds.phi" in names
    assert ("penalty.gradient" if solver_id.startswith("cdf") else "manifolds.theta") in names


def test_traced_penalty_solve_spans_every_objective_call(tracing):
    # each penalty value and gradient calls the objective oracle it wraps, so
    # the per-layer problems.f and problems.grad counts cannot read 0
    pf, prob = _lsm_desk()
    tracer = tracing.Tracer()
    tracer.instrument(prob)
    with tracer.installed():
        run_solver("cdf-gd", pf, prob.spec.random_feasible(3), SolverConfig(grad_tol=1e-5))
    names = Counter(span[tracing.NAME] for span in tracer.spans)
    assert names["problems.f"] == names["penalty.value"] > 0
    assert names["problems.grad"] == names["penalty.gradient"] > 0


class _Recording:
    """A problem that records the names of the callables read off it."""

    def __init__(self, problem):
        self.__dict__.update(problem=problem, called=set())

    def __getattr__(self, name):
        value = getattr(self.problem, name)
        if callable(value):
            self.called.add(name)
        return value


def test_problem_oracles_cover_every_oracle_the_library_calls(tracing):
    _, prob = _lsm_desk()
    recording = _Recording(prob)
    pf = op.PenaltyFunction(prob.spec, recording, 0.5)
    x0 = prob.spec.random_feasible(3)
    for sid in op.SOLVERS:
        run_solver(sid, pf, x0, SolverConfig(grad_tol=1e-5, max_iter=3))
    op.stationarity_report(pf, x0.X)
    assert recording.called == {attr for attr, _ in tracing.PROBLEM_ORACLES}


def test_penalty_gradient_keeps_the_tracer_contract(tracing):
    # the tracer calls penalty_gradient(pf, X, cache) positionally and reads
    # the solve's meter off cache.counts around the call
    pf, prob = _lsm_desk()
    seen = []
    gradient = solvers_mod.penalty_gradient

    def spy(pf, X, cache):
        seen.append((X is cache.X, dict(cache.counts)))
        return gradient(pf, X, cache)

    solvers_mod.penalty_gradient = spy
    try:
        r = run_solver("cdf-gd", pf, prob.spec.random_feasible(3), SolverConfig(max_iter=3))
    finally:
        solvers_mod.penalty_gradient = gradient
    assert len(seen) == r.phase_counts["gradient"] > 0
    assert all(own and set(counts) == {"matmul", "phi", "grad_f", "f"} for own, counts in seen)


def test_evalcache_is_one_read_only_point_whose_dissolved_cache_shares_its_meter():
    pf, prob = _lsm_desk()
    X = prob.spec.random_feasible(3).X + 0.01
    cache = op.EvalCache(prob.spec, X)
    assert cache.X is X and not X.flags.writeable
    with pytest.raises(ValueError):
        X[0, 0] = 1.0
    with pytest.raises(ValueError):
        op.penalty_gradient(pf, X.copy(), cache)     # a foreign array, equal contents
    g = op.penalty_gradient(pf, X, cache)
    assert cache.counts == {"matmul": 5, "phi": 1, "grad_f": 1, "f": 0}
    np.testing.assert_array_equal(g, op.penalty_gradient(pf, X))
    moved = cache.dissolved()
    assert moved.counts is cache.counts and moved.X is cache.AX
    assert not moved.X.flags.writeable
    op.penalty_value(pf, moved.X, moved)
    assert cache.counts == {"matmul": 7, "phi": 2, "grad_f": 1, "f": 1}
