"""Workload definitions, set-up, one closed-loop pass of solves, and the output checks.

Everything goes through the public API of ``orthopt``: the ``build_*``
generators, ``PenaltyFunction``, ``run_solver`` and ``postprocess``.
"""

import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import orthopt as op

GRAD_TOL = 1e-5          # stopping tolerance of every solve
FEAS_TOL = 1e-12         # post-processing target and feasibility check
F_GATE = 1e-6            # |f - f_best| <= F_GATE * (1 + |f_best|), acceptance criterion 09
SOLVE_CAP_S = 60.0       # per-solve time cap; no solve took 25 s at the baseline
# Starts are drawn at this relative distance from the workload's reference
# start.  Far starts land the six solvers in different local minima of the
# nonconvex objectives, where the objective gate cannot compare them.
START_RADIUS = 1e-3

CDF_SOLVERS = ("cdf-gd", "cdf-cg", "cdf-lbfgs", "cdf-tr")
RIEMANNIAN_SOLVERS = ("rgd", "rcg")


def _solves(cdf_starts, riemannian_starts):
    """(solver id, start index) pairs of one pass, start by start."""
    pairs = []
    for k in range(max(cdf_starts, riemannian_starts)):
        if k < cdf_starts:
            pairs += [(sid, k) for sid in CDF_SOLVERS]
        if k < riemannian_starts:
            pairs += [(sid, k) for sid in RIEMANNIAN_SOLVERS]
    return tuple(pairs)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object        # () -> Problem, with the problem seed fixed
    beta: float
    x0_seed: int         # seed of the reference start
    solves: tuple        # (solver id, start index) pairs of one pass

    @property
    def n_starts(self):
        return 1 + max(k for _, k in self.solves)


# Iteration counts to 1e-5 change from start to start by about 10% for rgd
# and for the Hessian-vector products of cdf-tr.  Where the penalty solves
# are cheap next to the Riemannian ones, a pass runs them from two starts.
WORKLOADS = {
    "lsm-cdf": Workload(
        "lsm-cdf", lambda: op.build_lsm(1000, 20, seed=5, a=200.0, b=0.05),
        beta=0.012, x0_seed=2, solves=_solves(1, 0)),
    "tjfd": Workload(
        "tjfd", lambda: op.build_tensor_jfd(20, 3, 8, n_samples=5, gamma=0.5, seed=1),
        beta=0.8, x0_seed=5, solves=_solves(2, 1)),
    "indef": Workload(
        "indef", lambda: op.build_extrinsic_mean(120, 24, k=60, p_k=12, n_samples=100, seed=0),
        beta=0.5, x0_seed=11, solves=_solves(2, 1)),
}


@dataclass
class Instance:
    problem: object
    pf: object
    starts: list


def setup(wl, seed, build=None, instrument=None):
    """Build the problem, the penalty bundle and the start points for one seed.

    Start k is the reference start moved along a random tangent direction
    drawn from ``(seed, k)``; drawing the first computes the lazy S1 basis
    and the first projection.  ``build`` replaces ``wl.build`` and
    ``instrument`` is called on the fresh problem before anything else
    touches it (both for tracing).
    """
    problem = (build or wl.build)()
    if instrument is not None:
        instrument(problem)
    spec = problem.spec
    pf = op.PenaltyFunction(spec, problem, wl.beta)
    ref = spec.random_feasible(wl.x0_seed)
    starts = []
    for k in range(wl.n_starts):
        Z = op.random_tangent(spec, ref, seed=(seed, k))
        step = (START_RADIUS * np.linalg.norm(ref.X) / np.linalg.norm(Z)) * Z
        starts.append(op.retract(spec, ref, step))
    return Instance(problem, pf, starts)


@dataclass
class SolveResult:
    solver: str
    start: int
    seconds: float
    status: str = "error"
    iters: int = 0
    f: float = float("nan")
    feas: float = float("nan")
    rounds: int = 0
    phase_counts: dict = None
    error: str = ""
    failures: tuple = ()


def _solve(sid, start, inst, deadline, hooks):
    t0 = time.perf_counter()
    cap = max(min(SOLVE_CAP_S, deadline - t0), 1e-3)
    res = SolveResult(sid, start, 0.0)
    try:
        config = op.SolverConfig(grad_tol=GRAD_TOL, time_limit=cap)
        report = hooks.run_solver(sid, inst.pf, inst.starts[start], config)
        if op.SOLVERS[sid][0] == "cdf":
            point, res.rounds = hooks.postprocess(inst.problem.spec, report.X, eps_f=FEAS_TOL)
        else:
            point = report.point
        res.seconds = time.perf_counter() - t0
        res.status, res.iters, res.phase_counts = report.status, report.iters, report.phase_counts
        with hooks.checking():
            res.f, res.feas = float(inst.problem.f(point.X)), float(point.feas)
    except Exception as exc:  # a raising solve is counted as failed and the pass goes on
        res.seconds = time.perf_counter() - t0
        res.error = type(exc).__name__
        traceback.print_exc(file=sys.stderr)
    return res


def check(results):
    """Attach the reasons each solve fails its output checks; returns the failed count."""
    finite = [r.f for r in results if not r.error and np.isfinite(r.f)]
    f_best = min(finite) if finite else float("nan")
    for r in results:
        why = []
        if r.error:
            why.append(f"raised {r.error}")
        else:
            if r.status != "GradTol":
                why.append(f"status {r.status}")
            if not r.feas <= FEAS_TOL:
                why.append(f"feasibility {r.feas:.2e}")
            if not abs(r.f - f_best) <= F_GATE * (1.0 + abs(f_best)):
                why.append(f"objective {r.f!r} vs best {f_best!r}")
        r.failures = tuple(why)
    return sum(1 for r in results if r.failures)


class PlainHooks:
    """Call sites of the solve path; the tracer substitutes spanned versions."""

    run_solver = staticmethod(op.run_solver)
    postprocess = staticmethod(op.postprocess)

    def solving(self, sid):
        return nullcontext()

    def checking(self):
        return nullcontext()


@dataclass
class PassResult:
    wall_s: float        # the solves and their checks, set-up excluded
    results: list
    failed: int

    def route_seconds(self, kind):
        return sum((r.seconds for r in self.results if op.SOLVERS[r.solver][0] == kind), 0.0)


def run_pass(solves, instance, deadline, hooks=None):
    """Run (solver id, start index) solves one after another and check their outputs.

    ``instance()`` gives the set-up instance of each solve.
    """
    hooks = hooks or PlainHooks()
    wall = 0.0
    results = []
    for sid, start in solves:
        inst = instance()
        t0 = time.perf_counter()
        with hooks.solving(sid):
            results.append(_solve(sid, start, inst, deadline, hooks))
        wall += time.perf_counter() - t0
    return PassResult(wall, results, check(results))
