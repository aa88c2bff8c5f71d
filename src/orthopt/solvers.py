"""First-order and trust-region solvers with per-phase instrumentation.

Four Euclidean methods (BB gradient descent, nonlinear CG, L-BFGS,
Steihaug trust region) minimize a smooth function given by an oracle;
two Riemannian baselines (RGD, RCG) minimize an objective restricted to a
manifold using retractions and projection-based transports.  Every solve
returns a SolveReport with an iterate trace and a wall-clock breakdown by
phase {objective, gradient, hessvec, retraction, transport, linesearch}.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .manifolds import FeasiblePoint, RetractError, riemannian_gradient, vector_transport
from .penalty import EvalCache, UnsupportedOperation, penalty_gradient, penalty_hessvec, penalty_value

STATUS_GRAD_TOL = "GradTol"
STATUS_MAX_ITER = "MaxIter"
STATUS_TIME_LIMIT = "TimeLimit"
STATUS_LS_FAIL = "LineSearchFail"
STATUS_RADIUS_COLLAPSE = "RadiusCollapse"

ORACLE_PHASES = ("objective", "gradient", "hessvec", "retraction", "transport")
ALL_PHASES = ORACLE_PHASES + ("linesearch",)


@dataclass
class SolverConfig:
    grad_tol: float = 1e-5
    max_iter: int = 100000
    time_limit: float = 1800.0
    ls_c1: float = 1e-4
    ls_shrink: float = 0.5
    ls_eta: float = 0.85
    ls_max_backtracks: int = 30
    bb_min: float = 1e-10
    bb_max: float = 1e10
    tr_init_radius: float = 1.0
    tr_max_radius: float = 1e3
    tr_accept: float = 0.15
    memory: int = 10
    record_trace: bool = True

    def __post_init__(self):
        if self.grad_tol < 0 or self.max_iter <= 0 or self.time_limit <= 0:
            raise ValueError("tolerances and budgets must be positive")
        if not self.bb_min < self.bb_max:
            raise ValueError("BB safeguard bounds must be ordered")


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


class FunctionOracle:
    """Adapter exposing plain callables to the Euclidean solvers."""

    def __init__(self, f, grad, hessvec=None):
        self._f = f
        self._g = grad
        self._hv = hessvec

    def value(self, x):
        return float(self._f(x))

    def grad(self, x):
        return self._g(x)

    def value_and_grad(self, x):
        return float(self._f(x)), self._g(x)

    def hessvec(self, x, v):
        if self._hv is None:
            raise UnsupportedOperation("no Hessian oracle attached")
        return self._hv(x, v)

    def feas(self, x):
        return 0.0


class PenaltyOracle:
    """Penalty function with a shared evaluation cache and work counters."""

    def __init__(self, pf):
        self.pf = pf
        self.cache = EvalCache()

    def value(self, x):
        return penalty_value(self.pf, x, self.cache)

    def grad(self, x):
        return penalty_gradient(self.pf, x, self.cache)

    def value_and_grad(self, x):
        return (penalty_value(self.pf, x, self.cache),
                penalty_gradient(self.pf, x, self.cache))

    def hessvec(self, x, v):
        return penalty_hessvec(self.pf, x, v, self.cache)

    def feas(self, x):
        self.cache.ensure_base(self.pf.spec, x)
        return float(np.linalg.norm(self.cache.gram - np.eye(self.pf.spec.p)))


def _dot(a, b):
    return float(np.vdot(a, b))


def _norm(a):
    return float(np.linalg.norm(a))


class _Merit:
    """Weighted-average reference value for nonmonotone line searches."""

    def __init__(self, h0, eta):
        self.C = h0
        self.Q = 1.0
        self.eta = eta

    def update(self, h_new):
        Qn = self.eta * self.Q + 1.0
        self.C = (self.eta * self.Q * self.C + h_new) / Qn
        self.Q = Qn


def _backtrack(oracle, clock, cfg, x, d, gd, merit_c, alpha0):
    """Halve the step until the averaged sufficient-decrease test passes."""
    t0 = time.perf_counter()
    before = clock.oracle_seconds()
    alpha = alpha0
    out = None
    for _ in range(cfg.ls_max_backtracks + 1):
        xn = x + alpha * d
        with clock.phase("objective"):
            hn = oracle.value(xn)
        if np.isfinite(hn) and hn <= merit_c + cfg.ls_c1 * alpha * gd:
            out = (alpha, xn, hn)
            break
        alpha *= cfg.ls_shrink
    clock.seconds["linesearch"] += (time.perf_counter() - t0) - (clock.oracle_seconds() - before)
    clock.counts["linesearch"] += 1
    return out


def _bb_step(k, s, y, cfg, fallback):
    """Alternating spectral step: odd iterations long form, even short form."""
    sy = _dot(s, y)
    if not np.isfinite(sy) or sy <= 0.0:
        return fallback
    raw = _dot(s, s) / sy if k % 2 == 1 else sy / _dot(y, y)
    if not np.isfinite(raw) or raw <= 0.0:
        return fallback
    return min(cfg.bb_max, max(cfg.bb_min, raw))


def _trace_row(clock, k, h, gn, feas):
    return (k, h, gn, feas) + clock.row()


def _final_report(name, oracle, clock, t0, x, h, iters, status, trace, cfg, point=None):
    with clock.phase("gradient"):
        g = oracle.grad(x)
    return SolveReport(
        solver=name, X=np.asarray(x), fval=h, grad_norm=_norm(g),
        feas_norm=oracle.feas(x), iters=iters, status=status,
        total_time=time.perf_counter() - t0,
        phase_seconds=dict(clock.seconds), phase_counts=dict(clock.counts),
        trace=trace if cfg.record_trace else [], point=point)


def gd_bb(oracle, x0, config=None):
    """Gradient descent with alternating spectral steps and a nonmonotone search."""
    cfg = config or SolverConfig()
    clock = PhaseClock()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    with clock.phase("gradient"):
        h, g = oracle.value_and_grad(x)
    gn = _norm(g)
    merit = _Merit(h, cfg.ls_eta)
    trace = [_trace_row(clock, 0, h, gn, oracle.feas(x))]
    status = STATUS_MAX_ITER
    iters = 0
    s = y = None
    for k in range(1, cfg.max_iter + 1):
        if gn <= cfg.grad_tol:
            status = STATUS_GRAD_TOL
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = STATUS_TIME_LIMIT
            break
        fallback = 1.0 / max(1.0, gn)
        alpha0 = fallback if s is None else _bb_step(k, s, y, cfg, fallback)
        hit = _backtrack(oracle, clock, cfg, x, -g, -gn * gn, merit.C, alpha0)
        if hit is None:
            status = STATUS_LS_FAIL
            break
        _, xn, hn = hit
        with clock.phase("gradient"):
            g_new = oracle.grad(xn)
        s, y = xn - x, g_new - g
        merit.update(hn)
        x, g, h = xn, g_new, hn
        gn = _norm(g)
        iters = k
        trace.append(_trace_row(clock, k, h, gn, oracle.feas(x)))
    return _final_report("cdf-gd", oracle, clock, t0, x, h, iters, status, trace, cfg)


def cg(oracle, x0, config=None):
    """Nonlinear conjugate gradient (PR+ with restarts).

    The trial step is refined by a one-point secant fit of the directional
    derivative, which lands on the exact minimizer for quadratics, so the
    method terminates finitely on strictly convex quadratic models.
    """
    cfg = config or SolverConfig()
    clock = PhaseClock()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    with clock.phase("gradient"):
        h, g = oracle.value_and_grad(x)
    gn = _norm(g)
    merit = _Merit(h, cfg.ls_eta)
    trace = [_trace_row(clock, 0, h, gn, oracle.feas(x))]
    status = STATUS_MAX_ITER
    iters = 0
    d = -g
    alpha_prev = None
    for k in range(1, cfg.max_iter + 1):
        if gn <= cfg.grad_tol:
            status = STATUS_GRAD_TOL
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = STATUS_TIME_LIMIT
            break
        gd = _dot(g, d)
        if gd >= 0.0:
            d = -g
            gd = -gn * gn
        alpha_t = alpha_prev if alpha_prev else 1.0 / max(1.0, gn)
        with clock.phase("gradient"):
            g_probe = oracle.grad(x + alpha_t * d)
        denom = _dot(g_probe - g, d)
        if denom > 1e-30:
            alpha0 = alpha_t * (-gd) / denom
            alpha0 = min(max(alpha0, 1e-4 * alpha_t), 1e4 * alpha_t)
        else:
            alpha0 = 4.0 * alpha_t
        hit = _backtrack(oracle, clock, cfg, x, d, gd, merit.C, alpha0)
        if hit is None:
            status = STATUS_LS_FAIL
            break
        alpha, xn, hn = hit
        with clock.phase("gradient"):
            g_new = oracle.grad(xn)
        beta = max(0.0, _dot(g_new, g_new - g) / (gn * gn))
        d = -g_new + beta * d
        merit.update(hn)
        x, g, h = xn, g_new, hn
        gn = _norm(g)
        alpha_prev = alpha
        iters = k
        trace.append(_trace_row(clock, k, h, gn, oracle.feas(x)))
    return _final_report("cdf-cg", oracle, clock, t0, x, h, iters, status, trace, cfg)


def lbfgs(oracle, x0, config=None, memory=None):
    """Limited-memory BFGS with the two-loop recursion."""
    cfg = config or SolverConfig()
    mem = cfg.memory if memory is None else memory
    clock = PhaseClock()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    with clock.phase("gradient"):
        h, g = oracle.value_and_grad(x)
    gn = _norm(g)
    merit = _Merit(h, cfg.ls_eta)
    trace = [_trace_row(clock, 0, h, gn, oracle.feas(x))]
    status = STATUS_MAX_ITER
    iters = 0
    pairs = []
    for k in range(1, cfg.max_iter + 1):
        if gn <= cfg.grad_tol:
            status = STATUS_GRAD_TOL
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = STATUS_TIME_LIMIT
            break
        d = _two_loop(g, pairs)
        gd = _dot(g, d)
        if gd >= 0.0:
            d = -g
            gd = -gn * gn
        alpha0 = 1.0 / max(1.0, gn) if not pairs else 1.0
        hit = _backtrack(oracle, clock, cfg, x, d, gd, merit.C, alpha0)
        if hit is None:
            status = STATUS_LS_FAIL
            break
        _, xn, hn = hit
        with clock.phase("gradient"):
            g_new = oracle.grad(xn)
        s, y = xn - x, g_new - g
        sy = _dot(s, y)
        if sy > 1e-12 * _norm(s) * _norm(y):
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > mem:
                pairs.pop(0)
        merit.update(hn)
        x, g, h = xn, g_new, hn
        gn = _norm(g)
        iters = k
        trace.append(_trace_row(clock, k, h, gn, oracle.feas(x)))
    return _final_report("cdf-lbfgs", oracle, clock, t0, x, h, iters, status, trace, cfg)


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


def trust_ncg(oracle, x0, config=None):
    """Trust-region method with a Steihaug truncated conjugate-gradient subproblem.

    The inner CG stops once its residual satisfies the forcing rule
    ||r|| <= ||g|| min(kappa, ||g||^theta) with kappa = 0.05 and theta = 0.5
    (Steihaug 1983; Absil, Baker & Gallivan 2007), so near a nondegenerate
    minimizer the outer iterates converge with order 1 + theta.  kappa stays
    below 0.084: a larger one stops CG after two of three steps on a 3 x 3
    diagonal quadratic whose minimizer fits in the radius, and the exact
    single step is lost.  The inner solve also returns H p, so the predicted
    reduction costs no extra Hessian-vector product.
    """
    cfg = config or SolverConfig()
    clock = PhaseClock()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    with clock.phase("gradient"):
        h, g = oracle.value_and_grad(x)
    gn = _norm(g)
    trace = [_trace_row(clock, 0, h, gn, oracle.feas(x))]
    status = STATUS_MAX_ITER
    iters = 0
    radius = cfg.tr_init_radius

    use_fd = [False]

    def hv(xx, v):
        if not use_fd[0]:
            try:
                with clock.phase("hessvec"):
                    return oracle.hessvec(xx, v)
            except UnsupportedOperation:
                use_fd[0] = True
        with clock.phase("hessvec"):
            nv = _norm(v)
            if nv == 0.0:
                return np.zeros_like(v)
            t = 1e-5 / nv
            return (oracle.grad(xx + t * v) - oracle.grad(xx - t * v)) / (2.0 * t)

    while iters < cfg.max_iter:
        if gn <= cfg.grad_tol:
            status = STATUS_GRAD_TOL
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = STATUS_TIME_LIMIT
            break
        if radius < 1e-16:
            status = STATUS_RADIUS_COLLAPSE
            break
        p, Hp, hit_boundary = _steihaug(lambda v: hv(x, v), g, gn, radius)
        pred = -(_dot(g, p) + 0.5 * _dot(p, Hp))
        with clock.phase("objective"):
            h_trial = oracle.value(x + p)
        rho = (h - h_trial) / pred if pred > 0 else -1.0
        if not np.isfinite(rho):        # a non-finite trial value is a rejection
            rho = -1.0
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and hit_boundary:
            radius = min(2.0 * radius, cfg.tr_max_radius)
        if rho >= cfg.tr_accept:
            x = x + p
            h = h_trial
            with clock.phase("gradient"):
                g = oracle.grad(x)
            gn = _norm(g)
            iters += 1
            trace.append(_trace_row(clock, iters, h, gn, oracle.feas(x)))
    return _final_report("cdf-tr", oracle, clock, t0, x, h, iters, status, trace, cfg)


def _to_boundary(z, d, radius):
    # positive root tau of ||z + tau d|| = radius
    dd = _dot(d, d)
    zd = _dot(z, d)
    zz = _dot(z, z)
    return (-zd + np.sqrt(max(zd * zd + dd * (radius * radius - zz), 0.0))) / dd


# truncated-CG forcing rule ||r|| <= ||g|| min(TCG_KAPPA, ||g||^TCG_THETA)
TCG_KAPPA = 0.05
TCG_THETA = 0.5


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


# -------------------------------------------------------------------------
# Riemannian baselines
# -------------------------------------------------------------------------

def _riemannian_search(problem, spec, clock, cfg, point, d, gd, merit_c, alpha0):
    t0 = time.perf_counter()
    before = clock.oracle_seconds()
    alpha = alpha0
    out = None
    for _ in range(cfg.ls_max_backtracks + 1):
        try:
            with clock.phase("retraction"):
                cand = spec.retract(point, alpha * d)
        except RetractError:
            alpha *= cfg.ls_shrink
            continue
        with clock.phase("objective"):
            hn = float(problem.f(cand.X))
        if np.isfinite(hn) and hn <= merit_c + cfg.ls_c1 * alpha * gd:
            out = (alpha, cand, hn)
            break
        alpha *= cfg.ls_shrink
    clock.seconds["linesearch"] += (time.perf_counter() - t0) - (clock.oracle_seconds() - before)
    clock.counts["linesearch"] += 1
    return out


def _riemannian_report(name, problem, spec, clock, t0, point, h, iters, status, trace, cfg):
    with clock.phase("gradient"):
        g = riemannian_gradient(spec, point, problem.grad(point.X))
    return SolveReport(
        solver=name, X=point.X, fval=h, grad_norm=_norm(g), feas_norm=point.feas,
        iters=iters, status=status, total_time=time.perf_counter() - t0,
        phase_seconds=dict(clock.seconds), phase_counts=dict(clock.counts),
        trace=trace if cfg.record_trace else [], point=point)


def rgd(problem, spec, x0, config=None):
    """Riemannian gradient descent with spectral steps and a nonmonotone search."""
    cfg = config or SolverConfig()
    clock = PhaseClock()
    t0 = time.perf_counter()
    point = x0 if isinstance(x0, FeasiblePoint) else FeasiblePoint(spec, x0, tol=1e-8)
    with clock.phase("objective"):
        h = float(problem.f(point.X))
    with clock.phase("gradient"):
        g = riemannian_gradient(spec, point, problem.grad(point.X))
    gn = _norm(g)
    merit = _Merit(h, cfg.ls_eta)
    trace = [_trace_row(clock, 0, h, gn, point.feas)]
    status = STATUS_MAX_ITER
    iters = 0
    s = y = None
    for k in range(1, cfg.max_iter + 1):
        if gn <= cfg.grad_tol:
            status = STATUS_GRAD_TOL
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = STATUS_TIME_LIMIT
            break
        fallback = 1.0 / max(1.0, gn)
        alpha0 = fallback if s is None else _bb_step(k, s, y, cfg, fallback)
        hit = _riemannian_search(problem, spec, clock, cfg, point, -g, -gn * gn, merit.C, alpha0)
        if hit is None:
            status = STATUS_LS_FAIL
            break
        alpha, cand, hn = hit
        with clock.phase("gradient"):
            g_new = riemannian_gradient(spec, cand, problem.grad(cand.X))
        with clock.phase("transport"):
            s = vector_transport(spec, cand, alpha * (-g))
        with clock.phase("transport"):
            y = g_new - vector_transport(spec, cand, g)
        merit.update(hn)
        point, g, h = cand, g_new, hn
        gn = _norm(g)
        iters = k
        trace.append(_trace_row(clock, k, h, gn, point.feas))
    return _riemannian_report("rgd", problem, spec, clock, t0, point, h, iters, status, trace, cfg)


def rcg(problem, spec, x0, config=None):
    """Riemannian conjugate gradient with a hybrid FR/DY parameter."""
    cfg = config or SolverConfig()
    clock = PhaseClock()
    t0 = time.perf_counter()
    point = x0 if isinstance(x0, FeasiblePoint) else FeasiblePoint(spec, x0, tol=1e-8)
    with clock.phase("objective"):
        h = float(problem.f(point.X))
    with clock.phase("gradient"):
        g = riemannian_gradient(spec, point, problem.grad(point.X))
    gn = _norm(g)
    merit = _Merit(h, cfg.ls_eta)
    trace = [_trace_row(clock, 0, h, gn, point.feas)]
    status = STATUS_MAX_ITER
    iters = 0
    d = -g
    alpha_prev = None
    for k in range(1, cfg.max_iter + 1):
        if gn <= cfg.grad_tol:
            status = STATUS_GRAD_TOL
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = STATUS_TIME_LIMIT
            break
        gd = _dot(g, d)
        if gd >= 0.0:
            d = -g
            gd = -gn * gn
        alpha0 = alpha_prev if alpha_prev else 1.0 / max(1.0, gn)
        hit = _riemannian_search(problem, spec, clock, cfg, point, d, gd, merit.C, alpha0)
        if hit is None:
            status = STATUS_LS_FAIL
            break
        alpha, cand, hn = hit
        with clock.phase("gradient"):
            g_new = riemannian_gradient(spec, cand, problem.grad(cand.X))
        gn_new = _norm(g_new)
        with clock.phase("transport"):
            d_tr = vector_transport(spec, cand, d)
        fr = (gn_new * gn_new) / (gn * gn)
        dy_den = _dot(g_new, d_tr) - gd
        dy = (gn_new * gn_new) / dy_den if abs(dy_den) > 1e-30 else np.inf
        beta = max(0.0, min(fr, dy))
        d = -g_new + beta * d_tr
        if _dot(d, g_new) >= 0.0:
            d = -g_new
        merit.update(hn)
        point, g, h, gn = cand, g_new, hn, gn_new
        alpha_prev = alpha
        iters = k
        trace.append(_trace_row(clock, k, h, gn, point.feas))
    return _riemannian_report("rcg", problem, spec, clock, t0, point, h, iters, status, trace, cfg)


# -------------------------------------------------------------------------
# registry
# -------------------------------------------------------------------------

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
