"""One solver loop over a pluggable geometry and step rule.

Every solver is a pair (oracle, rule) driven by ``minimize``.  The oracle
carries the geometry: ``FunctionOracle`` and ``PenaltyOracle`` are flat
(a move is x + step, transport is the identity, the displacement is
xn - x), while ``ManifoldOracle`` moves by retraction, transports by
projection and reads feasibility off the point.  The rule proposes the next
point: alternating Barzilai-Borwein steps (``cdf-gd``, ``rgd``), PR+ CG with
a secant probe (``cdf-cg``), hybrid FR/DY CG (``rcg``), L-BFGS
(``cdf-lbfgs``) or a Steihaug trust region (``cdf-tr``).  ``minimize`` owns
the stop tests, the nonmonotone merit, the trace, the gradient at each
accepted point and the SolveReport, whose wall-clock breakdown is split by
phase {objective, gradient, hessvec, retraction, transport, linesearch}.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .manifolds import FeasiblePoint, RetractError, riemannian_gradient, vector_transport
from .penalty import EvalCache, penalty_gradient, penalty_hessvec, penalty_value

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
LBFGS_MEMORY = 10         # (s, y) pairs kept by L-BFGS
# truncated-CG forcing rule ||r|| <= ||g|| min(TCG_KAPPA, ||g||^TCG_THETA)
TCG_KAPPA = 0.05
TCG_THETA = 0.5


@dataclass
class SolverConfig:
    grad_tol: float = 1e-5
    max_iter: int = 100000
    time_limit: float = 1800.0

    def __post_init__(self):
        if self.grad_tol < 0 or self.max_iter <= 0 or self.time_limit <= 0:
            raise ValueError("tolerances and budgets must be positive")


@dataclass
class SolveReport:
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


class PhaseClock:
    def __init__(self):
        self.seconds = {k: 0.0 for k in ALL_PHASES}
        self.counts = {k: 0 for k in ALL_PHASES}

    @contextmanager
    def phase(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0
            self.counts[name] += 1

    def oracle_seconds(self):
        return sum(self.seconds[k] for k in ORACLE_PHASES)

    def row(self):
        return tuple(self.seconds[k] for k in ALL_PHASES)


# --- oracles: the objective together with its geometry ---------------------

class _FlatOracle:
    """Euclidean geometry: x + step moves, identity transport, xn - x displacement."""

    def start(self, x0, clock):
        x = np.array(x0, dtype=float)
        with clock.phase("gradient"):
            h, g = self.value(x), self.grad(x)
        return x, h, g

    def move(self, x, step, clock):
        return x + step

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
        return (self.grad(x + t * v) - self.grad(x - t * v)) / (2.0 * t)

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
    """Penalty function with a shared evaluation cache and work counters."""

    def __init__(self, pf):
        self.pf = pf
        self.cache = EvalCache()

    def value(self, x):
        return penalty_value(self.pf, x, self.cache)

    def grad(self, x):
        return penalty_gradient(self.pf, x, self.cache)

    def hessvec(self, x, v):
        if self.pf.problem.hessvec is None:
            return super().hessvec(x, v)
        return penalty_hessvec(self.pf, x, v, self.cache)

    def feas(self, x):
        self.cache.ensure_base(self.pf.spec, x)
        return float(np.linalg.norm(self.cache.C))


class ManifoldOracle:
    """Objective restricted to a manifold: retraction moves, projection transport.

    Iterates are FeasiblePoints.  A step the retraction cannot take
    (RetractError) is a rejected trial, reported as ``move`` returning None.
    """

    def __init__(self, problem, spec):
        self.problem, self.spec = problem, spec

    def start(self, x0, clock):
        point = x0 if isinstance(x0, FeasiblePoint) else FeasiblePoint(self.spec, x0, tol=1e-8)
        with clock.phase("objective"):
            h = self.value(point)
        with clock.phase("gradient"):
            g = self.grad(point)
        return point, h, g

    def value(self, point):
        return float(self.problem.f(point.X))

    def grad(self, point):
        return riemannian_gradient(self.spec, point, self.problem.grad(point.X))

    def move(self, point, step, clock):
        try:
            with clock.phase("retraction"):
                return self.spec.retract(point, step)
        except RetractError:
            return None

    def transport(self, point, v, clock):
        with clock.phase("transport"):
            return vector_transport(self.spec, point, v)

    def displacement(self, point, new, alpha, d, clock):
        return self.transport(new, alpha * d, clock)

    def feas(self, point):
        return point.feas

    def unwrap(self, point):
        return point.X, point


# --- the loop and its line search ------------------------------------------

def _dot(a, b):
    return float(np.vdot(a, b))


def _norm(a):
    return float(np.linalg.norm(a))


class _Merit:
    """Weighted-average reference value for nonmonotone line searches."""

    def __init__(self, h0):
        self.C = h0
        self.Q = 1.0

    def update(self, h_new):
        Qn = LS_ETA * self.Q + 1.0
        self.C = (LS_ETA * self.Q * self.C + h_new) / Qn
        self.Q = Qn


def _search(oracle, clock, x, d, gd, merit_c, alpha0):
    """Halve the step until the averaged sufficient-decrease test passes."""
    t0 = time.perf_counter()
    before = clock.oracle_seconds()
    alpha = alpha0
    out = None
    for _ in range(LS_MAX_BACKTRACKS + 1):
        xn = oracle.move(x, alpha * d, clock)
        if xn is not None:
            with clock.phase("objective"):
                hn = oracle.value(xn)
            if np.isfinite(hn) and hn <= merit_c + LS_C1 * alpha * gd:
                out = (alpha, xn, hn)
                break
        alpha *= LS_SHRINK
    clock.seconds["linesearch"] += (time.perf_counter() - t0) - (clock.oracle_seconds() - before)
    clock.counts["linesearch"] += 1
    return out


def minimize(name, oracle, rule, x0, config=None):
    """Run ``rule`` on ``oracle`` from ``x0`` until a stop test fires.

    Stops on ||g|| <= grad_tol, on the time limit, after max_iter accepted
    steps, or with the status the rule returns when it finds no step.
    """
    cfg = config or SolverConfig()
    clock = PhaseClock()
    t0 = time.perf_counter()

    def expired():
        return time.perf_counter() - t0 > cfg.time_limit

    x, h, g = oracle.start(x0, clock)
    gn = _norm(g)
    merit = _Merit(h)
    trace = [(0, h, gn, oracle.feas(x)) + clock.row()]
    status = STATUS_MAX_ITER
    iters = 0
    for k in range(1, cfg.max_iter + 1):
        if gn <= cfg.grad_tol:
            status = STATUS_GRAD_TOL
            break
        if expired():
            status = STATUS_TIME_LIMIT
            break
        out = rule.step(oracle, clock, x, g, gn, h, merit.C, expired)
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
        trace.append((k, h, gn, oracle.feas(x)) + clock.row())
    X, point = oracle.unwrap(x)
    return SolveReport(
        solver=name, X=X, fval=h, grad_norm=gn, feas_norm=oracle.feas(x),
        iters=iters, status=status, total_time=time.perf_counter() - t0,
        phase_seconds=dict(clock.seconds), phase_counts=dict(clock.counts),
        trace=trace, point=point)


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

    def step(self, oracle, clock, x, g, gn, h, merit_c, expired):
        d, gd, alpha0 = self.direction(oracle, clock, x, g, gn)
        hit = _search(oracle, clock, x, d, gd, merit_c, alpha0)
        if hit is None:
            return STATUS_LS_FAIL
        self.alpha, xn, hn = hit
        self.d, self.gd = d, gd
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
    derivative, which lands on the exact minimizer for quadratics, so the
    method terminates finitely on strictly convex quadratic models.
    """

    def direction(self, oracle, clock, x, g, gn):
        d, gd = _descent(g, gn, -g if self.d is None else self.d)
        alpha_t = self.alpha if self.alpha else 1.0 / max(1.0, gn)
        with clock.phase("gradient"):
            g_probe = oracle.grad(oracle.move(x, alpha_t * d, clock))
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
    ||r|| <= ||g|| min(kappa, ||g||^theta) with kappa = 0.05 and theta = 0.5
    (Steihaug 1983; Absil, Baker & Gallivan 2007), so near a nondegenerate
    minimizer the outer iterates converge with order 1 + theta.  kappa stays
    below 0.084: a larger one stops CG after two of three steps on a 3 x 3
    diagonal quadratic whose minimizer fits in the radius, and the exact
    single step is lost.  The inner solve also returns H p, so the predicted
    reduction costs no extra Hessian-vector product.
    """

    def __init__(self):
        self.radius = TR_INIT_RADIUS

    def step(self, oracle, clock, x, g, gn, h, merit_c, expired):
        """Solve trial subproblems until one is accepted, the radius collapses
        below 1e-16 or the time runs out."""
        def hv(v):
            with clock.phase("hessvec"):
                return oracle.hessvec(x, v)

        while self.radius >= 1e-16:
            p, Hp, hit_boundary = _steihaug(hv, g, gn, self.radius)
            pred = -(_dot(g, p) + 0.5 * _dot(p, Hp))
            xn = oracle.move(x, p, clock)
            with clock.phase("objective"):
                h_trial = oracle.value(xn)
            rho = (h - h_trial) / pred if pred > 0 else -1.0
            if not np.isfinite(rho):        # a non-finite trial value is a rejection
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


def _steihaug(hv, g, gn, radius, max_inner=250):
    # Returns (p, H p, hit_boundary).  The forcing rule gives outer order
    # 1 + TCG_THETA; TCG_KAPPA < 0.084 keeps exact steps on the small
    # quadratics whose minimizer fits in the radius.  H p is carried along
    # the CG recurrence, so the caller needs no product of its own.
    z = np.zeros_like(g)
    Hz = np.zeros_like(g)
    r = np.array(g, dtype=float)
    d = -r
    rr = _dot(r, r)
    tol = gn * min(TCG_KAPPA, gn ** TCG_THETA)
    for _ in range(max_inner):
        Hd = hv(d)
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


# --- the six solvers and their registry ------------------------------------

def gd_bb(oracle, x0, config=None):
    """Gradient descent with alternating spectral steps and a nonmonotone search."""
    return minimize("cdf-gd", oracle, Spectral(), x0, config)


def cg(oracle, x0, config=None):
    """Nonlinear conjugate gradient, PR+ with a secant trial step (see SecantCG)."""
    return minimize("cdf-cg", oracle, SecantCG(), x0, config)


def lbfgs(oracle, x0, config=None):
    """Limited-memory BFGS with the two-loop recursion."""
    return minimize("cdf-lbfgs", oracle, LBFGS(), x0, config)


def trust_ncg(oracle, x0, config=None):
    """Steihaug truncated-CG trust region (see TrustRegion)."""
    return minimize("cdf-tr", oracle, TrustRegion(), x0, config)


def rgd(problem, spec, x0, config=None):
    """Riemannian gradient descent with spectral steps and a nonmonotone search."""
    return minimize("rgd", ManifoldOracle(problem, spec), Spectral(), x0, config)


def rcg(problem, spec, x0, config=None):
    """Riemannian conjugate gradient with a hybrid FR/DY parameter."""
    return minimize("rcg", ManifoldOracle(problem, spec), HybridCG(), x0, config)


SOLVERS = {
    "cdf-gd": ("cdf", gd_bb),
    "cdf-cg": ("cdf", cg),
    "cdf-lbfgs": ("cdf", lbfgs),
    "cdf-tr": ("cdf", trust_ncg),
    "rgd": ("riemannian", rgd),
    "rcg": ("riemannian", rcg),
}


def run_solver(solver_id, pf, x0_point, config=None):
    """Dispatch a solve by string id on a penalty bundle and a feasible start."""
    if solver_id not in SOLVERS:
        raise KeyError(f"unknown solver {solver_id!r}; choose from {sorted(SOLVERS)}")
    kind, fn = SOLVERS[solver_id]
    if kind == "cdf":
        return fn(PenaltyOracle(pf), x0_point.X, config)
    return fn(pf.problem, pf.spec, x0_point, config)
