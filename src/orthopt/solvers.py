"""One solver loop over a pluggable geometry and step rule.

``SOLVERS`` defines every solver as one row, id -> (route, rule class).
The route names the oracle ``run_solver`` builds: ``cdf`` the penalty,
``riemannian`` the manifold.  ``minimize(solver_id, oracle, x0)`` runs a
fresh instance of the row's rule over any oracle.  The oracle carries the
geometry: ``FunctionOracle`` and ``PenaltyOracle`` are flat (a move is
x + step, transport is the identity, the displacement is xn - x), while
``ManifoldOracle`` moves by retraction, transports by projection and reads
feasibility off the point.  Both routes make each iterate an ``EvalCache``
of its own.  Line searches, secant probes and the trust region ask the
oracle for its trial point, which is the move except on the penalty, where
``PenaltyOracle`` takes it one dissolving step further, at A(x + step);
only the finite-difference Hessian uses plain moves.  A line search adds
the oracle's ``charge`` to the value at a trial: on the penalty
beta/2 ||C(x + step)||^2, the residual term of the raw step, elsewhere
nothing.  The first trial of a search rejected on the charge alone is
retried once along the oracle's ``tangent``, on the penalty dA_x[d] (3
products, no phi), whose raw step pays a charge of O(alpha^4); the rule
then carries on from the direction the step took.  The rule proposes the
next point; ``minimize`` owns the stop tests, the nonmonotone merit, the trace, the
value and gradient at the start, the gradient at each accepted point and
the SolveReport, whose wall-clock breakdown is split by phase {objective,
gradient, hessvec, retraction, transport, linesearch}.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .manifolds import (
    METER_KEYS,
    EvalCache,
    RetractError,
    _checked,
    _point,
    normal_factor,
    riemannian_gradient,
    vector_transport,
)
from .penalty import _dA, penalty_gradient, penalty_hessvec, penalty_value

STATUS_GRAD_TOL = "GradTol"
STATUS_MAX_ITER = "MaxIter"
STATUS_TIME_LIMIT = "TimeLimit"
STATUS_LS_FAIL = "LineSearchFail"
STATUS_RADIUS_COLLAPSE = "RadiusCollapse"

ORACLE_PHASES = ("objective", "gradient", "hessvec", "retraction", "transport")
ALL_PHASES = ORACLE_PHASES + ("linesearch",)

LS_C1 = 1e-4              # sufficient-decrease constant of the nonmonotone search
LS_SHRINK = 0.5           # step factor per backtrack
LS_ETA = 0.85             # averaging weight of the merit value
LS_MAX_BACKTRACKS = 30
BB_MIN = 1e-10            # safeguard interval of the spectral step
BB_MAX = 1e10
TR_INIT_RADIUS = 1.0
TR_MAX_RADIUS = 1e3
TR_ACCEPT = 0.15          # least rho that accepts a trust-region step
TR_RHO_REG = 1e3 * np.finfo(float).eps   # rho regularization per unit of max(1, |h|)
LBFGS_MEMORY = 10         # (s, y) pairs kept by L-BFGS
# truncated-CG forcing rule ||r|| < max(||g|| min(TCG_KAPPA, ||g||^TCG_THETA), grad_tol)
TCG_KAPPA = 0.05
TCG_THETA = 0.5
TCG_MAX_INNER = 250       # inner CG iterations per subproblem


@dataclass
class SolverConfig:
    grad_tol: float = 1e-5
    max_iter: int = 100000
    time_limit: float = 1800.0

    def __post_init__(self):
        if not isinstance(self.max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        # written so that NaN fails it
        if not (0 <= self.grad_tol < math.inf and self.max_iter > 0 and self.time_limit > 0):
            raise ValueError(f"need a finite grad_tol >= 0, max_iter > 0 and time_limit > 0; "
                             f"got {self}")


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``phase_seconds`` and ``phase_counts`` are the time and the number of
    calls booked to each phase.  A ``trace`` row is (iter, value, grad_norm,
    feas), the seconds booked to each phase so far, the number of objective
    evaluations the iteration took and the number of Hessian-vector products
    it formed (both 0 for the start).  ``phase_counts["hessvec"]`` counts the
    Hessian-vector products formed; a trust-region re-solve that replays the
    products of its base does not count them again.
    """

    solver: str
    X: np.ndarray
    fval: float
    grad_norm: float
    feas_norm: float
    iters: int
    status: str
    total_time: float
    phase_seconds: dict
    phase_counts: dict
    trace: list
    point: object = None
    # work metered over the solve, {matmul, phi, f, grad_f} of the penalty
    # route's EvalCache; None for solvers whose oracle has no meter
    work: dict = None


class PhaseClock:
    def __init__(self):
        self.seconds = {k: 0.0 for k in ALL_PHASES}
        self.counts = {k: 0 for k in ALL_PHASES}

    def phase(self, name):
        """A context manager that books the time spent in its block to ``name``."""
        return _Phase(self, name)

    def oracle_seconds(self):
        return sum(self.seconds[k] for k in ORACLE_PHASES)

    def row(self):
        return tuple(self.seconds[k] for k in ALL_PHASES)


class _Phase:
    __slots__ = ("clock", "name", "t0")

    def __init__(self, clock, name):
        self.clock, self.name = clock, name

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.clock.seconds[self.name] += time.perf_counter() - self.t0
        self.clock.counts[self.name] += 1


# --- oracles: the objective together with its geometry ---------------------

class _FlatOracle:
    """Euclidean geometry: x + step moves, identity transport, xn - x displacement."""

    meter = None    # dict of work counts the oracle keeps, if any

    def iterate(self, x0):
        """The start as an iterate: a float copy of x0."""
        return np.array(x0, dtype=float)

    def move(self, x, step, clock):
        return x + step

    def trial(self, x, step, clock):
        """The trial point for ``step`` from x: the move itself."""
        return self.move(x, step, clock)

    def charge(self, trial):
        """What a line search adds to the value at ``trial``: nothing."""
        return 0.0

    def tangent(self, x, d):
        """A direction to retry a trial rejected on its charge: none."""
        return None

    def transport(self, xn, v, clock):
        return v

    def displacement(self, x, xn, alpha, d, clock):
        return xn - x

    def hessvec(self, x, v):
        """Central difference of gradients, for objectives without a Hessian oracle."""
        nv = _norm(v)
        if nv == 0.0:
            return np.zeros_like(v)
        t = 1e-5 / nv
        up, down = self.move(x, t * v, None), self.move(x, -t * v, None)
        return (self.grad(up) - self.grad(down)) / (2.0 * t)

    def feas(self, x):
        return 0.0

    def unwrap(self, x):
        return np.asarray(x), None


class FunctionOracle(_FlatOracle):
    """Adapter exposing plain callables to the Euclidean solvers."""

    def __init__(self, f, grad, hessvec=None):
        self._f = f
        self._g = grad
        self._hv = hessvec

    def value(self, x):
        return float(self._f(x))

    def grad(self, x):
        return self._g(x)

    def hessvec(self, x, v):
        return super().hessvec(x, v) if self._hv is None else self._hv(x, v)


class PenaltyOracle(_FlatOracle):
    """Penalty function whose iterates are evaluation caches.

    The start, every move x + step and every trial A(x + step) are a new
    ``EvalCache`` built around a read-only X, all sharing the oracle's one
    meter.  A line search accepts the trial A(x + alpha d) on its value plus
    ``charge``, the penalty term beta/2 ||C(x + alpha d)||^2 of the raw step,
    which the dissolving step would otherwise hide; the first trial of a
    search rejected on that charge alone is retried along ``tangent``,
    dA_x[d].  The trust region takes the value there uncharged.  Value, gradient, Hessian-vector
    products and feasibility at an iterate fill or read its own cache, so a
    rejected trial leaves the base it was taken from as it was, and the
    objective oracles at A(X) share the store of its ``dissolved()`` point.
    ``unwrap`` hands back a writable copy of X.
    """

    def __init__(self, pf):
        self.pf = pf
        self.meter = dict.fromkeys(METER_KEYS, 0)

    def iterate(self, x0):
        """The start, an array or a point, as a cache around a copy of its X."""
        return EvalCache(self.pf.spec, super().iterate(_point(self.pf.spec, x0).X), self.meter)

    def move(self, x, step, clock):
        return EvalCache(self.pf.spec, x.X + step, self.meter)

    def trial(self, x, step, clock):
        """A(x + step), one dissolving step from x + step, as a fresh cache.

        The base at x + step costs 1 phi and 2 products, booked to no phase
        as a flat move is.
        """
        return self.move(x, step, clock).dissolved()

    def charge(self, trial):
        """beta/2 ||C(x + step)||^2, the penalty term of the raw point that
        ``trial`` dissolved, read off its residual; no phi, no product."""
        C = trial.origin_C
        return 0.5 * self.pf.beta * float(np.vdot(C, C))

    def tangent(self, x, d):
        """dA_x[d], the dissolving differential at x applied to d: at a
        feasible x, C(x + alpha dA_x[d]) is O(alpha^2), so the charge is
        O(alpha^4).  3 products and no phi at the base of x."""
        return _dA(x.base(), d)[0]

    def displacement(self, x, xn, alpha, d, clock):
        return xn.X - x.X

    def unwrap(self, x):
        return np.array(x.X), None

    def value(self, x):
        return penalty_value(self.pf, x.X, x)

    def grad(self, x):
        return penalty_gradient(self.pf, x.X, x)

    def hessvec(self, x, v):
        if self.pf.problem.hessvec is None:
            return super().hessvec(x, v)
        return penalty_hessvec(self.pf, x.X, v, x)

    def feas(self, x):
        return x.feas


class ManifoldOracle:
    """Objective restricted to a manifold: retraction moves, projection transport.

    Iterates are points of the spec.  A step the retraction cannot take
    (RetractError) is a rejected trial, reported as ``move`` returning None.
    The objective oracles at a point share the point's store.  ``unwrap``
    hands back a writable copy of X with the point.
    """

    meter = None

    def __init__(self, problem, spec):
        self.problem, self.spec = problem, spec

    def iterate(self, x0):
        """The start as an iterate: a point of this spec, checked to 1e-8.  A
        point of this spec is taken as it is; an array, or a point of
        another spec, becomes one at a copy of its X."""
        return _checked(_point(self.spec, x0), 1e-8)

    def value(self, point):
        return float(self.problem.f(point.X, point.store))

    def grad(self, point):
        return riemannian_gradient(self.spec, point, self.problem.grad(point.X, point.store))

    def move(self, point, step, clock):
        # the new point comes with the normal-space factorization that every
        # projection at it reads, so its decomposition is booked to the
        # geometry step that made the point
        try:
            with clock.phase("retraction"):
                new = self.spec.retract(point, step)
                normal_factor(self.spec, new)
                return new
        except RetractError:
            return None

    trial = move    # a trial is the retraction

    def charge(self, trial):
        """A retracted trial is feasible: nothing to add."""
        return 0.0

    def tangent(self, point, d):
        """No trial is rejected on a charge, so no direction to retry."""
        return None

    def transport(self, point, v, clock):
        with clock.phase("transport"):
            return vector_transport(self.spec, point, v)

    def displacement(self, point, new, alpha, d, clock):
        return self.transport(new, alpha * d, clock)

    def feas(self, point):
        return point.feas

    def unwrap(self, point):
        return np.array(point.X), point


# --- the loop and its line search ------------------------------------------

def _dot(a, b):
    # np.vdot's own sum on real arrays: both flattened in C order, one BLAS dot
    return float(a.ravel().dot(b.ravel()))


def _norm(a):
    # np.linalg.norm's own sum for the Frobenius norm of a real array
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


class _Merit:
    """Weighted-average reference value for nonmonotone line searches."""

    def __init__(self, h0):
        self.C = h0
        self.Q = 1.0

    def update(self, h_new):
        Qn = LS_ETA * self.Q + 1.0
        self.C = (LS_ETA * self.Q * self.C + h_new) / Qn
        self.Q = Qn


def _search(oracle, clock, x, g, d, gd, merit_c, alpha0):
    """Halve the step until a trial passes the nonmonotone sufficient-decrease
    test h(trial) + charge(trial) <= merit_c + c1 alpha <g, d> (Zhang & Hager
    2004), and return (alpha, trial, h(trial), d, <g, d>) with the direction
    the accepted trial took, or None.

    The trial is ``oracle.trial(x, alpha d)``.  On the penalty it is
    A(x + alpha d), and the charge is beta/2 ||C(x + alpha d)||^2, the term the
    raw step pays in h: uncharged, a step far off the manifold looks as good
    as its dissolved image, and L-BFGS on indefinite frames drifts to
    ||C|| ~ 0.5 and ends in LineSearchFail.  The returned h is uncharged; it
    is the value at the accepted point, and the merit averages it.

    The first trial of the search that passes on h alone and fails only on
    the charge, whatever its alpha, is retried once, at the same alpha,
    along ``oracle.tangent(x, d)`` when that is downhill; a later
    charge-only rejection halves alpha like any other.  On the penalty the
    tangent is dA_x[d], whose raw step leaves the manifold at O(alpha^2)
    and pays a charge of O(alpha^4) (Xiao, Liu & Toh 2024); it costs 3
    products and no phi.  The other oracles have no charge and no tangent,
    so their searches are unchanged.
    """
    t0 = time.perf_counter()
    before = clock.oracle_seconds()
    alpha = alpha0
    out = None
    retried = False
    with np.errstate(over="ignore", invalid="ignore"):     # non-finite trials fail below
        for k in range(LS_MAX_BACKTRACKS + 1):
            xn = oracle.trial(x, alpha * d, clock)
            if xn is not None:
                with clock.phase("objective"):
                    hn = oracle.value(xn)
                bound = merit_c + LS_C1 * alpha * gd
                if np.isfinite(hn) and hn + oracle.charge(xn) <= bound:
                    out = (alpha, xn, hn, d, gd)
                    break
                if not retried and hn <= bound:     # rejected on the charge alone
                    retried = True
                    t = oracle.tangent(x, d)
                    gt = None if t is None else _dot(g, t)
                    if gt is not None and gt < 0.0:
                        d, gd = t, gt
                        continue                # the retry keeps alpha
            alpha *= LS_SHRINK
    clock.seconds["linesearch"] += (time.perf_counter() - t0) - (clock.oracle_seconds() - before)
    clock.counts["linesearch"] += 1
    return out


def minimize(solver_id, oracle, x0, config=None):
    """Run the step rule of ``SOLVERS[solver_id]`` on ``oracle`` from ``x0``
    until a stop test fires; an unknown id raises KeyError.

    Stops on ||g|| <= grad_tol, on the time limit, after max_iter accepted
    steps, or with the status the rule returns when it finds no step.
    """
    rule = _row(solver_id)[1]()
    cfg = config or SolverConfig()
    clock = PhaseClock()
    work0 = None if oracle.meter is None else dict(oracle.meter)
    t0 = time.perf_counter()

    def expired():
        return time.perf_counter() - t0 > cfg.time_limit

    x = oracle.iterate(x0)
    with clock.phase("objective"):
        h = oracle.value(x)
    with clock.phase("gradient"):
        g = oracle.grad(x)
    gn = _norm(g)
    merit = _Merit(h)
    # objective evaluations and Hessian-vector products up to the last row
    valued, formed = clock.counts["objective"], clock.counts["hessvec"]
    trace = [(0, h, gn, oracle.feas(x)) + clock.row() + (0, 0)]
    status = STATUS_MAX_ITER
    iters = 0
    for k in range(1, cfg.max_iter + 1):
        if gn <= cfg.grad_tol:
            status = STATUS_GRAD_TOL
            break
        if expired():
            status = STATUS_TIME_LIMIT
            break
        out = rule.step(oracle, clock, x, g, gn, h, merit.C, expired, cfg.grad_tol)
        if isinstance(out, str):
            status = out
            break
        xn, hn = out
        with clock.phase("gradient"):
            g_new = oracle.grad(xn)
        rule.update(oracle, clock, x, xn, g, g_new, gn)
        merit.update(hn)
        x, g, h = xn, g_new, hn
        gn = _norm(g)
        iters = k
        trials, valued = clock.counts["objective"] - valued, clock.counts["objective"]
        hessvecs, formed = clock.counts["hessvec"] - formed, clock.counts["hessvec"]
        trace.append((k, h, gn, oracle.feas(x)) + clock.row() + (trials, hessvecs))
    X, point = oracle.unwrap(x)
    work = None if work0 is None else {k: v - work0[k] for k, v in oracle.meter.items()}
    return SolveReport(
        solver=solver_id, X=X, fval=h, grad_norm=gn, feas_norm=oracle.feas(x),
        iters=iters, status=status, total_time=time.perf_counter() - t0,
        phase_seconds=dict(clock.seconds), phase_counts=dict(clock.counts),
        trace=trace, point=point, work=work)


# --- step rules ------------------------------------------------------------

def _descent(g, gn, d):
    """d with its slope <g, d>, or steepest descent when d is not downhill."""
    gd = _dot(g, d)
    if gd >= 0.0:
        return -g, -gn * gn
    return d, gd


class _LineSearchRule:
    """A direction, an initial trial step and the nonmonotone search along it."""

    alpha = None    # accepted step length of the previous iteration
    d = None        # search direction of the current iteration

    def step(self, oracle, clock, x, g, gn, h, merit_c, expired, grad_tol):
        d, gd, alpha0 = self.direction(oracle, clock, x, g, gn)
        hit = _search(oracle, clock, x, g, d, gd, merit_c, alpha0)
        if hit is None:
            return STATUS_LS_FAIL
        self.alpha, xn, hn, self.d, self.gd = hit      # the direction the step took
        return xn, hn


class Spectral(_LineSearchRule):
    """Steepest descent with alternating spectral steps: odd iterations take
    the long Barzilai-Borwein form, even iterations the short one."""

    k = 0
    s = y = None

    def direction(self, oracle, clock, x, g, gn):
        self.k += 1
        fallback = 1.0 / max(1.0, gn)
        return -g, -gn * gn, fallback if self.s is None else self._bb(fallback)

    def _bb(self, fallback):
        sy = _dot(self.s, self.y)
        if not np.isfinite(sy) or sy <= 0.0:
            return fallback
        raw = _dot(self.s, self.s) / sy if self.k % 2 == 1 else sy / _dot(self.y, self.y)
        if not np.isfinite(raw) or raw <= 0.0:
            return fallback
        return min(BB_MAX, max(BB_MIN, raw))

    def update(self, oracle, clock, x, xn, g, g_new, gn):
        self.s = oracle.displacement(x, xn, self.alpha, self.d, clock)
        self.y = g_new - oracle.transport(xn, g, clock)


class SecantCG(_LineSearchRule):
    """Nonlinear conjugate gradient (PR+ with restarts).

    The trial step is refined by a one-point secant fit of the directional
    derivative, probed at the oracle's trial point (A(x + alpha d) on the
    penalty, where the line search looks too).  On a flat quadratic the fit
    lands on the exact minimizer, so the method terminates finitely on
    strictly convex quadratic models.
    """

    def direction(self, oracle, clock, x, g, gn):
        d, gd = _descent(g, gn, -g if self.d is None else self.d)
        alpha_t = self.alpha if self.alpha else 1.0 / max(1.0, gn)
        with clock.phase("gradient"):
            g_probe = oracle.grad(oracle.trial(x, alpha_t * d, clock))
        denom = _dot(g_probe - g, d)
        if denom > 1e-30:
            alpha0 = alpha_t * (-gd) / denom
            alpha0 = min(max(alpha0, 1e-4 * alpha_t), 1e4 * alpha_t)
        else:
            alpha0 = 4.0 * alpha_t
        return d, gd, alpha0

    def update(self, oracle, clock, x, xn, g, g_new, gn):
        beta = max(0.0, _dot(g_new, g_new - oracle.transport(xn, g, clock)) / (gn * gn))
        self.d = -g_new + beta * oracle.transport(xn, self.d, clock)


class HybridCG(_LineSearchRule):
    """Conjugate gradient with the hybrid parameter max(0, min(FR, DY))."""

    def direction(self, oracle, clock, x, g, gn):
        d, gd = _descent(g, gn, -g if self.d is None else self.d)
        return d, gd, self.alpha if self.alpha else 1.0 / max(1.0, gn)

    def update(self, oracle, clock, x, xn, g, g_new, gn):
        gn_new = _norm(g_new)
        d_tr = oracle.transport(xn, self.d, clock)
        fr = (gn_new * gn_new) / (gn * gn)
        dy_den = _dot(g_new, d_tr) - self.gd
        dy = (gn_new * gn_new) / dy_den if abs(dy_den) > 1e-30 else np.inf
        beta = max(0.0, min(fr, dy))
        self.d = -g_new + beta * d_tr
        if _dot(self.d, g_new) >= 0.0:
            self.d = -g_new


class LBFGS(_LineSearchRule):
    """Limited-memory BFGS with the two-loop recursion."""

    def __init__(self):
        self.pairs = []

    def direction(self, oracle, clock, x, g, gn):
        d, gd = _descent(g, gn, _two_loop(g, self.pairs))
        return d, gd, 1.0 / max(1.0, gn) if not self.pairs else 1.0

    def update(self, oracle, clock, x, xn, g, g_new, gn):
        s = oracle.displacement(x, xn, self.alpha, self.d, clock)
        y = g_new - oracle.transport(xn, g, clock)
        sy = _dot(s, y)
        if sy > 1e-12 * _norm(s) * _norm(y):
            self.pairs.append((s, y, 1.0 / sy))
            if len(self.pairs) > LBFGS_MEMORY:
                self.pairs.pop(0)


def _two_loop(g, pairs):
    q = -np.array(g, dtype=float)
    if not pairs:
        return q
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * _dot(s, q)
        q -= a * y
        alphas.append(a)
    s, y, rho = pairs[-1]
    q *= _dot(s, y) / _dot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * _dot(y, q)
        q += (a - b) * s
    return q


class TrustRegion:
    """Trust region with a Steihaug truncated conjugate-gradient subproblem.

    The inner CG stops once its residual satisfies the forcing rule
    ||r|| < max(||g|| min(kappa, ||g||^theta), grad_tol) with kappa = 0.05
    and theta = 0.5 (Steihaug 1983; Absil, Baker & Gallivan 2007), so near
    a nondegenerate minimizer the outer iterates converge with order
    1 + theta.  The floor is the solve's own stop tolerance: r is the model
    gradient at x + p, and solving the model below the tolerance the outer
    loop stops at is work the stop test never sees (Eisenstat & Walker
    1996).  At grad_tol = 0 the rule is the plain forcing rule.  kappa stays
    below 0.084: a larger one stops CG after two of three steps on a 3 x 3
    diagonal quadratic whose minimizer fits in the radius, and the exact
    single step is lost.  The inner solve also returns H p, so the predicted
    reduction costs no extra Hessian-vector product.  The ratio rho adds
    delta = 1e3 eps max(1, |h|) to both reductions (Absil, Baker & Gallivan
    2007), so trials near the solution, where h - h_trial is mostly
    rounding, do not shrink the radius at random.

    The CG directions at one base do not depend on the radius until CG
    stops, and a rejected trial only shrinks the radius, so the re-solve
    after it asks for a prefix of the same products.  The step keeps the
    products H d of its base in order, replays them and forms new ones
    only past the stored ones; the list is dropped when the step returns.
    ``phase_counts["hessvec"]`` counts the products formed, not the
    replayed ones.

    The trial is ``oracle.trial(x, p)``, the trial point of the line
    searches too: x + p on a flat oracle, the retraction on a manifold, and
    on the penalty the dissolved point A(x + p), which pulls x + p back
    toward the manifold and on which the penalty is exact (Xiao, Liu & Toh
    2024).  rho compares the uncharged h there with the model at p; the
    line searches' charge does not enter it.  A trial that comes back None
    is a rejection with rho = -1.
    """

    def __init__(self):
        self.radius = TR_INIT_RADIUS

    def step(self, oracle, clock, x, g, gn, h, merit_c, expired, grad_tol):
        """Solve trial subproblems, each to the forcing rule floored at
        ``grad_tol``, until one is accepted, the radius collapses below 1e-16
        or the time runs out."""
        def hv(v):
            with clock.phase("hessvec"):
                return oracle.hessvec(x, v)

        products = []
        while self.radius >= 1e-16:
            p, Hp, hit_boundary = _steihaug(hv, g, gn, self.radius, products, grad_tol)
            pred = -(_dot(g, p) + 0.5 * _dot(p, Hp))
            xn = oracle.trial(x, p, clock)
            rho = -1.0                      # a trial the oracle cannot take is a rejection
            if xn is not None:
                with clock.phase("objective"):
                    h_trial = oracle.value(xn)
                if pred > 0:
                    delta = TR_RHO_REG * max(1.0, abs(h))
                    rho = (h - h_trial + delta) / (pred + delta)
                if not np.isfinite(rho):    # a non-finite trial value is a rejection
                    rho = -1.0
            if rho < 0.25:
                self.radius *= 0.25
            elif rho > 0.75 and hit_boundary:
                self.radius = min(2.0 * self.radius, TR_MAX_RADIUS)
            if rho >= TR_ACCEPT:
                return xn, h_trial
            if expired():
                return STATUS_TIME_LIMIT
        return STATUS_RADIUS_COLLAPSE

    def update(self, oracle, clock, x, xn, g, g_new, gn):
        pass


def _to_boundary(z, d, radius):
    # positive root tau of ||z + tau d|| = radius
    dd, zd, zz = _dot(d, d), _dot(z, d), _dot(z, z)
    return (-zd + np.sqrt(max(zd * zd + dd * (radius * radius - zz), 0.0))) / dd


def _steihaug(hv, g, gn, radius, products, floor):
    # Returns (p, H p, hit_boundary).  The forcing rule gives outer order
    # 1 + TCG_THETA; TCG_KAPPA < 0.084 keeps exact steps on the small
    # quadratics whose minimizer fits in the radius.  ``floor``, the
    # solve's grad_tol, caps how far below it the residual is driven: r is
    # the model gradient at z, so a smaller one cannot change which test
    # ends the solve.  H p is carried along the CG recurrence, so the
    # caller needs no product of its own.
    # ``products`` holds the H d of earlier runs at the same base: the
    # directions do not depend on the radius until CG stops, so those are
    # read in order and only later ones are formed and appended.
    z = np.zeros_like(g)
    Hz = np.zeros_like(g)
    r = np.array(g, dtype=float)
    d = -r
    rr = _dot(r, r)
    tol = max(gn * min(TCG_KAPPA, gn ** TCG_THETA), floor)
    for k in range(TCG_MAX_INNER):
        if k == len(products):
            products.append(hv(d))
        Hd = products[k]
        dHd = _dot(d, Hd)
        if dHd <= 0.0:
            tau = _to_boundary(z, d, radius)
            return z + tau * d, Hz + tau * Hd, True
        alpha = rr / dHd
        zn = z + alpha * d
        if _norm(zn) >= radius:
            tau = _to_boundary(z, d, radius)
            return z + tau * d, Hz + tau * Hd, True
        Hz = Hz + alpha * Hd
        r = r + alpha * Hd
        rrn = _dot(r, r)
        if np.sqrt(rrn) < tol:
            return zn, Hz, False
        d = -r + (rrn / rr) * d
        z, rr = zn, rrn
    return z, Hz, False


# --- the registry: each solver is a route and a step rule ------------------

SOLVERS = {
    "cdf-gd": ("cdf", Spectral),
    "cdf-cg": ("cdf", SecantCG),
    "cdf-lbfgs": ("cdf", LBFGS),
    "cdf-tr": ("cdf", TrustRegion),
    "rgd": ("riemannian", Spectral),
    "rcg": ("riemannian", HybridCG),
}


def _row(solver_id):
    if solver_id not in SOLVERS:
        raise KeyError(f"unknown solver {solver_id!r}; choose from {sorted(SOLVERS)}")
    return SOLVERS[solver_id]


def run_solver(solver_id, pf, x0_point, config=None):
    """Solve by string id on a penalty bundle from a feasible start: the
    ``cdf`` route minimizes the penalty, the ``riemannian`` route the
    objective on the manifold."""
    route, _ = _row(solver_id)
    oracle = PenaltyOracle(pf) if route == "cdf" else ManifoldOracle(pf.problem, pf.spec)
    return minimize(solver_id, oracle, x0_point, config)
