"""Spans around the public callables of each orthopt layer, kept in memory.

The tracer wraps, from outside the package, the module globals and instance
attributes through which one layer calls the next.  A span records its name
(``<layer>.<callable>``), start, end, parent span, the solve it belongs to,
and whether the call returned or raised.  The wrappers return what the
wrapped callable returns, so a traced solve takes the same iterates.
"""

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import orthopt as op
import orthopt.manifolds as manifolds_mod
import orthopt.problems as problems_mod
import orthopt.solvers as solvers_mod

LAYERS = ("problems", "manifolds", "penalty", "solvers", "linalg", "tensor")

# (module, global, span name): the globals a layer looks up to call another.
MODULE_PATCHES = (
    (solvers_mod, "penalty_value", "penalty.value"),
    (solvers_mod, "penalty_hessvec", "penalty.hessvec"),
    (solvers_mod, "riemannian_gradient", "manifolds.rgrad"),
    (solvers_mod, "vector_transport", "manifolds.transport"),
    (manifolds_mod, "theta_lstsq", "manifolds.theta"),
    (manifolds_mod, "lyapunov_solve", "linalg.lyapunov"),
    (manifolds_mod, "qr_posdiag", "tensor.qr"),
    (problems_mod, "qr_posdiag", "tensor.qr"),
)
SPEC_METHODS = (("phi", "manifolds.phi"), ("psi", "manifolds.psi"),
                ("retract", "manifolds.retract"), ("s1_basis", "manifolds.s1_basis"))
PROBLEM_ORACLES = (("f", "problems.f"), ("grad", "problems.grad"), ("hessvec", "problems.hessvec"))
# spans reported as <name>.calls and <name>.ms (median milliseconds per call)
CALL_METRICS = ("problems.f", "problems.grad", "problems.hessvec", "manifolds.phi",
                "manifolds.theta", "manifolds.retract", "linalg.lyapunov", "tensor.qr",
                "penalty.value", "penalty.gradient", "penalty.hessvec")
LINESEARCH_SOLVERS = ("cdf-gd", "cdf-cg", "cdf-lbfgs", "rgd", "rcg")

NAME, START, END, PARENT, SOLVE, OK = range(6)


class Tracer:
    """Span recorder that also stands in for the plain call sites of a pass."""

    def __init__(self):
        self.spans = []
        self.solve = "setup"
        self._stack = []
        self.gradient_work = {"calls": 0, "phi": 0, "matmul": 0}

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[OK] = True
                return out
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def _metered_gradient(self, fn):
        # the EvalCache is the gradient's third argument; read its meters around the call
        traced = self.wrap("penalty.gradient", fn)
        work = self.gradient_work

        def gradient(pf, X, cache):
            phi, mm = cache.counts["phi"], cache.counts["matmul"]
            out = traced(pf, X, cache)
            work["calls"] += 1
            work["phi"] += cache.counts["phi"] - phi
            work["matmul"] += cache.counts["matmul"] - mm
            return out

        return gradient

    @contextmanager
    def installed(self):
        """Route the package's cross-layer module globals through spans."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in MODULE_PATCHES]
        saved.append((solvers_mod, "penalty_gradient", solvers_mod.penalty_gradient))
        try:
            for mod, attr, name in MODULE_PATCHES:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            solvers_mod.penalty_gradient = self._metered_gradient(solvers_mod.penalty_gradient)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def instrument(self, problem):
        """Wrap the oracles of a fresh problem and the methods of its manifold."""
        spec = problem.spec
        for attr, name in SPEC_METHODS:
            setattr(spec, attr, self.wrap(name, getattr(spec, attr)))
        for attr, name in PROBLEM_ORACLES:
            if getattr(problem, attr) is not None:
                setattr(problem, attr, self.wrap(name, getattr(problem, attr)))

    # --- call sites used by workloads.run_pass --------------------------
    def run_solver(self, sid, *args, **kwargs):
        return self.wrap("solvers." + sid, op.run_solver)(sid, *args, **kwargs)

    def postprocess(self, *args, **kwargs):
        return self.wrap("penalty.postprocess", op.postprocess)(*args, **kwargs)

    @contextmanager
    def _labelled(self, label):
        prev, self.solve = self.solve, label
        try:
            yield
        finally:
            self.solve = prev

    def solving(self, sid):
        return self._labelled(sid)

    def checking(self):
        return self._labelled("check")

    # --- analysis --------------------------------------------------------
    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def dump(self, t_origin):
        """Columnar record of every span, times in seconds from ``t_origin``."""
        return {
            "fields": ["name", "start_s", "end_s", "parent", "solve", "ok"],
            "spans": [[s[NAME], s[START] - t_origin, s[END] - t_origin, s[PARENT], s[SOLVE], s[OK]]
                      for s in self.spans],
        }


def _median_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics of one traced pass, with ``plain`` the same pass untraced.

    Call counts, medians and self times cover the spans inside solves; set-up
    spans give the set-up metrics and the spans of the output checks are left out.
    """
    durations, returned = defaultdict(list), defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    setup_s = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, solve, dur = span[NAME], span[SOLVE], span[END] - span[START]
        if solve == "setup":
            setup_s[name] += dur
        elif solve != "check":
            durations[name].append(dur)
            returned[name] += span[OK]
            layer_self[name.split(".")[0]] += own

    m = {}
    for name in CALL_METRICS:
        m[name + ".calls"] = len(durations[name])
        m[name + ".ms"] = _median_ms(durations[name])
    for layer, seconds in layer_self.items():
        m[layer + ".self_s"] = seconds
    m["problems.build_s"] = setup_s["problems.build"]
    m["manifolds.s1_basis_s"] = setup_s["manifolds.s1_basis"]
    retracts = len(durations["manifolds.retract"])
    m["manifolds.retract.accept_ratio"] = returned["manifolds.retract"] / retracts if retracts else 0.0
    work = tracer.gradient_work
    m["penalty.gradient.phi_per_call"] = work["phi"] / work["calls"] if work["calls"] else 0.0
    m["penalty.gradient.matmul_per_call"] = work["matmul"] / work["calls"] if work["calls"] else 0.0
    m["penalty.postprocess.rounds"] = sum(r.rounds for r in plain.results)
    m["penalty.postprocess.ms"] = _median_ms(durations["penalty.postprocess"])

    by_id = {r.solver: r for r in plain.results}
    for sid in op.SOLVERS:
        r = by_id.get(sid)
        m[f"solvers.{sid}.iters"] = r.iters if r else 0
        m[f"solvers.{sid}.s"] = r.seconds if r else 0.0
    tr = by_id.get("cdf-tr")
    tr_counts = tr.phase_counts if tr and tr.phase_counts else {}
    m["solvers.cdf-tr.hessvec_calls"] = tr_counts.get("hessvec", 0)
    m["solvers.cdf-tr.accept_ratio"] = tr.iters / tr_counts["objective"] if tr_counts else 0.0
    ls = [r for r in plain.results if r.solver in LINESEARCH_SOLVERS and r.phase_counts]
    evals = sum(r.phase_counts["objective"] for r in ls)
    m["solvers.linesearch.accept_ratio"] = sum(r.iters for r in ls) / evals if evals else 0.0
    m["solvers.riem_s"] = plain.route_seconds("riemannian")
    m["trace.overhead_s"] = traced.wall_s - plain.wall_s
    m["trace.spans"] = len(tracer.spans)
    return m
