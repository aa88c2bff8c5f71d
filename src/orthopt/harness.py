"""Experiment harness: config files, solver grids, tables, traces, profiles."""

import configparser
import csv
import io
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .manifolds import PostprocessDivergence, riemannian_gradient
from .penalty import PenaltyFunction, postprocess
from .problems import PROBLEM_BUILDERS
from .solvers import ALL_PHASES, SOLVERS, SolverConfig, run_solver

TRACE_HEADER = (["iter", "value", "grad_norm", "feas"] + [f"t_{p}" for p in ALL_PHASES]
                + ["trials", "hessvecs"])
NUMERIC_RUN_KEYS = ("beta", "max_iter", "time_limit", "x0_seed", "repetitions")
RUN_KEYS = ("solvers", "tols", "out") + NUMERIC_RUN_KEYS   # the keys a [run] block may set


class ConfigError(ValueError):
    """Unusable experiment configuration."""


@dataclass
class ExperimentRecord:
    problem: str
    size: str
    solver: str
    tol: float
    fval: float
    iters: int
    grad: float
    feas: float
    cpu: float
    status: str
    seed: int
    beta: float
    pre_feas: float
    x0_seed: int = 0


@dataclass
class ExperimentConfig:
    problem: dict
    solvers: list
    tols: list
    beta: float = None
    max_iter: int = 100000
    time_limit: float = 1800.0
    x0_seed: int = 7
    out: str = None
    repetitions: int = 1

    def validate(self):
        """Check what no object built from the config checks itself; ``prepare``
        leaves every other setting to the code that uses it."""
        if self.problem.get("id") not in PROBLEM_BUILDERS:
            raise ConfigError(f"problem id must be one of {sorted(PROBLEM_BUILDERS)}")
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ConfigError(f"unknown solver {s!r}; choose from {sorted(SOLVERS)}")
        if not self.tols:
            raise ConfigError("at least one gradient tolerance is required")
        if not (isinstance(self.repetitions, (int, np.integer)) and self.repetitions >= 1):
            raise ConfigError("repetitions must be an integer >= 1")
        return self


def _coerce(value):
    value = value.strip()
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


@contextmanager
def _setting(name):
    """Turn a fault raised while reading or using the setting ``name`` into a
    ConfigError that names it and keeps the reason."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def load_config(path):
    """Read a key/value block file into an ExperimentConfig."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        blocks = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "problem" not in blocks:
        raise ConfigError("config needs a [problem] block")
    problem = {k: _coerce(v) for k, v in blocks["problem"].items()}
    run_sec = blocks.get("run", {})
    unknown = sorted(set(run_sec) - set(RUN_KEYS))
    if unknown:
        raise ConfigError(f"unknown [run] key {unknown[0]!r}; choose from {', '.join(RUN_KEYS)}")
    kwargs = {key: _coerce(run_sec[key]) for key in NUMERIC_RUN_KEYS if key in run_sec}
    solvers, tols = run_sec.get("solvers", ",".join(SOLVERS)), run_sec.get("tols", "1e-5, 1e-9")
    kwargs["solvers"] = [s.strip() for s in solvers.split(",") if s.strip()]
    with _setting("tols"):
        kwargs["tols"] = [float(t) for t in tols.split(",") if t.strip()]
    if "out" in run_sec:    # a directory name, even when it reads as a number
        kwargs["out"] = run_sec["out"].strip()
    return ExperimentConfig(problem=problem, **kwargs).validate()


def _problem_size(problem):
    """The sizes of the problem's spec, "(n,p)" with the batch shape after."""
    spec = problem.spec
    return "(" + ",".join(str(d) for d in (spec.n, spec.p) + spec.batch) + ")"


def _run_cell(pf, x0, x0_seed, solver_id, cfg):
    report = run_solver(solver_id, pf, x0, cfg)
    # every row is read at the post-processed point; pre_feas keeps the raw
    # residual.  A row whose post-processing diverges is read at the raw
    # iterate instead: f there, the solver's last gradient norm and the raw
    # residual, so that the rest of the grid still runs.
    status = report.status
    try:
        point, _ = postprocess(pf.spec, report.X)
    except PostprocessDivergence:
        status = "PostprocessDivergence"
        fval, grad, feas = pf.problem.f(report.X), report.grad_norm, report.feas_norm
    else:
        fval = pf.problem.f(point.X, point.store)
        egrad = pf.problem.grad(point.X, point.store)
        grad = np.linalg.norm(riemannian_gradient(pf.spec, point, egrad))
        feas = point.feas
    rec = ExperimentRecord(
        problem=pf.problem.name, size=_problem_size(pf.problem), solver=solver_id,
        tol=cfg.grad_tol, fval=float(fval), iters=report.iters,
        grad=float(grad), feas=float(feas),
        cpu=report.total_time, status=status,
        seed=int(pf.problem.metadata.get("seed", 0)), beta=pf.beta,
        pre_feas=float(report.feas_norm), x0_seed=x0_seed)
    return rec, report


def _write_trace(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in report.trace:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def prepare(config):
    """Validate a config and build everything it describes.

    Returns (pf, cfgs, starts): the problem's PenaltyFunction at the
    configured or default beta, one SolverConfig per distinct tolerance in
    ascending order of tolerance, and the start point of each repetition
    by its seed.  The problem is built by calling its builder with the
    [problem] keys, less ``id``, as keyword arguments.  Each setting is
    checked by the code that uses it; what that code rejects comes back as
    a ConfigError that names the setting.
    """
    config.validate()
    with _setting("[problem]"):
        problem = PROBLEM_BUILDERS[config.problem["id"]](
            **{k: v for k, v in config.problem.items() if k != "id"})
    with _setting("beta"):
        beta = config.beta if config.beta is not None else problem.metadata["beta_default"]
        pf = PenaltyFunction(problem.spec, problem, beta)
    with _setting("tols, max_iter or time_limit"):
        cfgs = [SolverConfig(grad_tol=tol, max_iter=config.max_iter, time_limit=config.time_limit)
                for tol in sorted(set(config.tols))]
    with _setting("x0_seed"):
        seeds = range(config.x0_seed, config.x0_seed + config.repetitions)
        starts = {seed: problem.spec.random_feasible(seed) for seed in seeds}
    return pf, cfgs, starts


def run(config):
    """Run a config's grid one cell at a time; returns its records in output order.

    Cells go in SOLVERS order, then by ascending tolerance, then by start
    seed; a solver or tolerance listed twice runs once.
    """
    pf, cfgs, starts = prepare(config)
    if config.out:
        os.makedirs(config.out, exist_ok=True)
    records = []
    for solver_id in [s for s in SOLVERS if s in config.solvers]:
        for cfg in cfgs:
            for x0_seed, x0 in starts.items():
                rec, report = _run_cell(pf, x0, x0_seed, solver_id, cfg)
                records.append(rec)
                if config.out:
                    name = f"trace_{rec.problem}_{rec.solver}_{rec.tol:g}_x{rec.x0_seed}.csv"
                    _write_trace(os.path.join(config.out, name), report)
    if config.out:
        emit_table(records, "csv", os.path.join(config.out, "records.csv"))
        emit_table(records, "text", os.path.join(config.out, "records.txt"))
    return records


def emit_table(records, fmt="text", path=None):
    """Render records as CSV (long form, exact floats), a JSON list of
    objects with the CSV columns as fields, or an aligned table."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "json":
        text = json.dumps([asdict(rec) for rec in records]) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        names = [f.name for f in fields(ExperimentRecord)]
        writer = csv.writer(buf)
        writer.writerow(names)
        for rec in records:
            writer.writerow([repr(getattr(rec, n)) if isinstance(getattr(rec, n), float)
                             else getattr(rec, n) for n in names])
        text = buf.getvalue()
    elif fmt == "text":
        text = _text_table(records)
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _text_table(records):
    tols = sorted({r.tol for r in records}, reverse=True)
    multi_start = len({r.x0_seed for r in records}) > 1

    def label(rec):
        return f"{rec.solver}#x{rec.x0_seed}" if multi_start else rec.solver

    keys = []
    for r in records:
        key = (r.problem, r.size, label(r), r.x0_seed)
        if key not in keys:
            keys.append(key)
    header = ["size", "solver"]
    for tol in tols:
        tag = f"tol={tol:g}"
        header += [f"Fval[{tag}]", f"Iter[{tag}]", f"Grad[{tag}]", f"Feas[{tag}]", f"CPU[{tag}]"]
    rows = [header]
    by_cell = {(r.problem, r.size, label(r), r.x0_seed, r.tol): r for r in records}
    for problem, size, solver, x0_seed in keys:
        row = [size, solver]
        for tol in tols:
            rec = by_cell.get((problem, size, solver, x0_seed, tol))
            if rec is None:
                row += ["-"] * 5
            else:
                row += [f"{rec.fval:.2e}", str(rec.iters), f"{rec.grad:.2e}",
                        f"{rec.feas:.2e}", f"{rec.cpu:.2f}"]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def timing_profile(config, iters=100):
    """Run every solver for a fixed iteration budget and split its wall time.

    Returns a plain-JSON dict per solver id: ``total_s``, ``iters``,
    ``us_per_iter`` (None when the solve took no step), ``grad_norm``, the
    solver's gradient norm at its last iterate, which shows a solve that
    ran on past convergence, and the phase split as ``seconds`` and
    ``percent``.  The split has one entry per solver phase (objective,
    gradient, hessvec, retraction, transport, linesearch) and "other" for
    the remaining loop time.  Solvers go in SOLVERS order, and one listed
    twice runs once.
    """
    pf, (cfg,), starts = prepare(replace(config, tols=[0.0], max_iter=iters))
    x0 = starts[config.x0_seed]
    out = {}
    for solver_id in [s for s in SOLVERS if s in config.solvers]:
        report = run_solver(solver_id, pf, x0, cfg)
        seconds = dict(report.phase_seconds)
        seconds["other"] = max(report.total_time - sum(seconds.values()), 0.0)
        total = sum(seconds.values())
        out[solver_id] = {
            "total_s": report.total_time, "iters": report.iters,
            "us_per_iter": 1e6 * report.total_time / report.iters if report.iters else None,
            "grad_norm": float(report.grad_norm), "seconds": seconds,
            "percent": {k: 100.0 * v / total for k, v in seconds.items()}}
    return out
