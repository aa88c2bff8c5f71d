import csv
import io
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import orthopt as op
import orthopt.diagnostics as diagnostics_mod
import orthopt.harness as harness_mod
from orthopt.cli import main as cli_main
from orthopt.harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    TRACE_HEADER,
    emit_table,
    load_config,
    prepare,
    run,
    timing_profile,
)
from orthopt.manifolds import FeasiblePoint, PostprocessDivergence
from orthopt.penalty import PenaltyFunction, postprocess
from orthopt.problems import PROBLEM_BUILDERS, Problem
from orthopt.solvers import ALL_PHASES, SolverConfig, run_solver

TINY_CFG = """
[problem]
id = extrinsic-mean
n = 15
p = 3
k = 9
p_k = 2
n_samples = 20
seed = 1

[run]
solvers = cdf-lbfgs, rgd
tols = 1e-5
beta = 0.5
max_iter = 20000
x0_seed = 3
"""

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

LSM_CFG = """
[problem]
id = lsm
n = 20
p = 4
seed = 0

[run]
solvers = cdf-gd
tols = 1e-4
beta = 0.5
"""

TJFD_CFG = """
[problem]
id = tensor-jfd
n = 6
p = 2
l = 2
n_samples = 2
seed = 0

[run]
solvers = cdf-gd
tols = 1e-4
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


# --------------------------------------------------------------- config file

def test_load_config_parses_blocks(tiny_config):
    cfg = load_config(tiny_config)
    assert cfg.problem["id"] == "extrinsic-mean"
    assert cfg.problem["k"] == 9
    assert cfg.solvers == ["cdf-lbfgs", "rgd"]
    assert cfg.tols == [1e-5]
    assert cfg.beta == 0.5
    assert cfg.max_iter == 20000


def test_load_config_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("[problem]\nid = lsm\nn = 10\np = 4\n")
    cfg = load_config(path)
    assert cfg.tols == [1e-5, 1e-9]
    assert len(cfg.solvers) == 6


def test_load_config_keeps_a_numeric_out_directory_a_name(tmp_path):
    path = tmp_path / "out.cfg"
    path.write_text(LSM_CFG + "out = 2026\n")
    assert load_config(path).out == "2026"


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_config_rejects_unknown_solver():
    cfg = ExperimentConfig(problem={"id": "lsm", "n": 10, "p": 4},
                           solvers=["newton"], tols=[1e-5])
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_rejects_unknown_problem():
    cfg = ExperimentConfig(problem={"id": "nope"}, solvers=["cdf-gd"], tols=[1e-5])
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.problem = {"id": "zero", "n": 8, "p": 3}
    with pytest.raises(ConfigError, match=re.escape("['extrinsic-mean', 'lsm', 'tensor-jfd']")):
        cfg.validate()


@pytest.mark.parametrize("setting", [
    {"tols": [-1.0]}, {"tols": [1e-5, float("nan")]}, {"tols": [float("inf")]},
    {"max_iter": 0}, {"time_limit": 0.0}, {"time_limit": float("nan")},
    {"beta": -1.0}, {"beta": float("nan")}, {"repetitions": 0},
    {"max_iter": 2.5}, {"repetitions": 1.5}, {"x0_seed": -3}, {"x0_seed": 1.5},
    {"problem": {"id": "lsm", "n": 10, "p": 4, "seed": -1}},
    {"problem": {"id": "lsm", "n": 10, "p": 4, "seed": 2.5}},
    {"time_limit": "abc"}, {"beta": "abc"}, {"tols": [1e-5, "abc"]},
    {"beta": float("inf")},
], ids=repr)
def test_config_rejects_bad_numeric_settings(setting):
    kwargs = {"problem": {"id": "lsm", "n": 10, "p": 4}, "solvers": ["cdf-gd"], "tols": [1e-5]}
    with pytest.raises(ConfigError):
        prepare(ExperimentConfig(**{**kwargs, **setting}))


@pytest.mark.parametrize("setting,name", [
    ({"beta": -1.0}, "beta"), ({"max_iter": 0}, "max_iter"), ({"x0_seed": -3}, "x0_seed"),
    ({"problem": {"id": "lsm", "n": 11, "p": 4}}, "[problem]"),
    ({"problem": {"id": "lsm", "n": 10.5, "p": 4}}, "[problem]: n must be an integer"),
], ids=repr)
def test_prepare_names_the_rejected_setting(setting, name):
    kwargs = {"problem": {"id": "lsm", "n": 10, "p": 4}, "solvers": ["cdf-gd"], "tols": [1e-5]}
    with pytest.raises(ConfigError, match=re.escape(name)):
        prepare(ExperimentConfig(**{**kwargs, **setting}))


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_shipped_configs_load_and_prepare(name):
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    pf, cfgs, starts = prepare(cfg)
    assert pf.problem.name == cfg.problem["id"] and pf.beta == cfg.beta
    assert [c.grad_tol for c in cfgs] == sorted(set(cfg.tols))
    assert list(starts) == [cfg.x0_seed]


# ----------------------------------------------------------------------- run

def test_run_grid_produces_records_and_traces(tiny_config, tmp_path):
    cfg = load_config(tiny_config)
    cfg.out = str(tmp_path / "out")
    records = run(cfg)
    assert len(records) == 2
    for rec in records:
        assert rec.status == "GradTol"
        assert rec.feas <= 1e-10
        assert rec.grad <= 1e-5
    names = sorted(os.listdir(cfg.out))
    assert "records.csv" in names and "records.txt" in names
    trace_files = [n for n in names if n.startswith("trace_")]
    assert len(trace_files) == 2
    with open(os.path.join(cfg.out, trace_files[0])) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRACE_HEADER
    assert len(rows) > 2


@pytest.mark.parametrize("solver", ["cdf-lbfgs", "rgd"])
def test_every_cell_of_the_written_csvs_is_a_number_or_a_word(tiny_config, tmp_path, solver):
    # a float cell is written as a plain float, never as np.float64(...)
    cfg = load_config(tiny_config)
    cfg.solvers, cfg.out = [solver], str(tmp_path / "out")
    run(cfg)
    for name in os.listdir(cfg.out):
        if name.endswith(".csv"):
            with open(os.path.join(cfg.out, name)) as fh:
                header, *rows = list(csv.reader(fh))
            words = {"problem", "size", "solver", "status"} & set(header)
            for row in rows:
                for key, cell in zip(header, row):
                    if key not in words:
                        float(cell)


def test_records_csv_writes_a_numpy_tolerance_as_a_plain_float(tiny_config, tmp_path):
    # csv writes str(v), which for np.float64 is the float itself, not its repr
    cfg = load_config(tiny_config)
    cfg.solvers, cfg.tols, cfg.out = ["cdf-lbfgs"], list(np.array([1e-3])), str(tmp_path / "out")
    run(cfg)
    with open(os.path.join(cfg.out, "records.csv"), newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["tol"] == "0.001"


def test_run_is_deterministic(tiny_config):
    # byte-identical output apart from wall-clock columns
    cfg = load_config(tiny_config)
    r1 = run(cfg)
    r2 = run(cfg)
    for a, b in zip(r1, r2):
        a.cpu = b.cpu = 0.0
    assert emit_table(r1, "csv") == emit_table(r2, "csv")


def test_cdf_records_use_postprocessed_feasibility(tiny_config):
    cfg = load_config(tiny_config)
    records = run(cfg)
    cdf = [r for r in records if r.solver == "cdf-lbfgs"][0]
    assert cdf.feas < 1e-12
    assert cdf.pre_feas >= cdf.feas


def zero_problem(spec):
    """A constant-zero objective on ``spec``: every start is stationary."""
    return Problem(spec, lambda X, store=None: 0.0,
                   lambda X, store=None: np.zeros_like(np.asarray(X, dtype=float)),
                   lambda X, V, store=None: np.zeros_like(np.asarray(V, dtype=float)),
                   name="zero", metadata={"beta_default": 1.0})


def test_riemannian_records_use_postprocessed_feasibility():
    # rgd stops at once on a zero objective; the row is read after post-processing
    spec = op.stiefel(8, 3)
    pf = PenaltyFunction(spec, zero_problem(spec), 1.0)
    Q = spec.random_feasible(0).X
    x0 = FeasiblePoint(spec, (1.0 + 1.45e-9) * Q, tol=1e-8)
    assert 4e-9 < x0.feas < 6e-9
    rec, report = harness_mod._run_cell(pf, x0, 0, "rgd", SolverConfig(grad_tol=1e-5))
    assert report.iters == 0 and rec.status == "GradTol"
    assert rec.pre_feas == x0.feas
    assert rec.feas <= 1e-12


def test_zero_objective_grid_converges_immediately(monkeypatch):
    monkeypatch.setitem(PROBLEM_BUILDERS, "zero",
                        lambda n, p: zero_problem(op.symplectic_stiefel(n, p)))
    cfg = ExperimentConfig(problem={"id": "zero", "n": 8, "p": 4},
                           solvers=["cdf-gd", "cdf-cg", "cdf-lbfgs", "rgd", "rcg"], tols=[1e-5])
    records = run(cfg)
    assert len(records) == 5
    for rec in records:
        assert rec.status == "GradTol"
        assert rec.iters <= 1
        assert rec.fval == 0.0
        assert rec.size == "(8,4)"


def test_repetitions_run_multiple_starts(tiny_config):
    cfg = load_config(tiny_config)
    cfg.solvers = ["cdf-lbfgs"]
    cfg.repetitions = 3
    records = run(cfg)
    assert len(records) == 3
    assert sorted(r.x0_seed for r in records) == [3, 4, 5]
    table = emit_table(records, "text")
    assert "cdf-lbfgs#x3" in table and "cdf-lbfgs#x5" in table


def test_run_grid_order_and_one_record_per_cell(tiny_config, monkeypatch):
    # solvers out of SOLVERS order, one solver and one tolerance listed twice
    solved = []

    def recording(solver_id, pf, x0, cfg):
        solved.append(solver_id)
        return run_solver(solver_id, pf, x0, cfg)

    monkeypatch.setattr(harness_mod, "run_solver", recording)
    cfg = load_config(tiny_config)
    cfg.solvers = ["rgd", "cdf-lbfgs", "rgd"]
    cfg.tols = [1e-4, 1e-3, 1e-4]
    cfg.repetitions = 2
    records = run(cfg)
    cells = [(s, t, x) for s in ["cdf-lbfgs", "rgd"] for t in [1e-4, 1e-3] for x in [3, 4]]
    assert [(r.solver, r.tol, r.x0_seed) for r in records] == cells
    assert len(solved) == len(cells)


def test_a_diverging_post_processing_keeps_the_rest_of_the_grid(tiny_config, monkeypatch,
                                                                capsys):
    # the cdf-gd rows fail their post-processing: each is read at its raw
    # iterate, and every other row comes back as it does without the fault
    cfg = load_config(tiny_config)
    cfg.solvers = ["cdf-gd", "cdf-lbfgs", "rgd"]
    cfg.repetitions = 2
    clean = run(cfg)
    solving = []

    def recording(solver_id, *args):
        solving.append(solver_id)
        return run_solver(solver_id, *args)

    def diverging(spec, X, eps_f=1e-12):
        if solving[-1] == "cdf-gd":
            raise PostprocessDivergence("residual 1.0 not lowered by round 1", [1.0, 1.0])
        return postprocess(spec, X, eps_f)

    monkeypatch.setattr(harness_mod, "run_solver", recording)
    monkeypatch.setattr(harness_mod, "postprocess", diverging)
    records = run(cfg)
    assert [r.solver for r in records] == [r.solver for r in clean]
    for rec, ref in zip(records, clean):
        if rec.solver == "cdf-gd":
            assert rec.status == "PostprocessDivergence" and rec.iters == ref.iters
            assert np.all(np.isfinite([rec.fval, rec.grad, rec.feas]))
            assert rec.feas == rec.pre_feas == ref.pre_feas
        else:
            assert replace(rec, cpu=0.0) == replace(ref, cpu=0.0)
    capsys.readouterr()
    argv = ["run", "--config", tiny_config, "--solver", "cdf-gd", "--solver", "rgd", "--json"]
    assert cli_main(argv) == 0
    statuses = [row["status"] for row in json.loads(capsys.readouterr().out)]
    assert statuses == ["PostprocessDivergence", "GradTol"]


# ---------------------------------------------------------------- emit_table

def _fake_records():
    return [
        ExperimentRecord(problem="lsm", size="(20,4)", solver="cdf-gd", tol=1e-5,
                         fval=6.29e-3, iters=265, grad=9.63e-6, feas=3.19e-15,
                         cpu=0.15, status="GradTol", seed=0, beta=0.012, pre_feas=1e-6),
        ExperimentRecord(problem="lsm", size="(20,4)", solver="cdf-gd", tol=1e-9,
                         fval=6.29e-3, iters=863, grad=8.83e-10, feas=7.21e-16,
                         cpu=0.49, status="GradTol", seed=0, beta=0.012, pre_feas=1e-9),
        ExperimentRecord(problem="lsm", size="(20,4)", solver="rgd", tol=1e-5,
                         fval=6.29e-3, iters=179, grad=9.11e-6, feas=1.64e-14,
                         cpu=0.55, status="GradTol", seed=0, beta=0.012, pre_feas=2e-14),
        ExperimentRecord(problem="lsm", size="(20,4)", solver="rgd", tol=1e-9,
                         fval=6.29e-3, iters=953, grad=8.50e-10, feas=3.92e-14,
                         cpu=1.91, status="GradTol", seed=0, beta=0.012, pre_feas=4e-14),
    ]


def test_text_table_golden():
    text = emit_table(_fake_records(), "text")
    lines = text.splitlines()
    assert lines[0].split() == [
        "size", "solver",
        "Fval[tol=1e-05]", "Iter[tol=1e-05]", "Grad[tol=1e-05]",
        "Feas[tol=1e-05]", "CPU[tol=1e-05]",
        "Fval[tol=1e-09]", "Iter[tol=1e-09]", "Grad[tol=1e-09]",
        "Feas[tol=1e-09]", "CPU[tol=1e-09]"]
    assert lines[1].split() == [
        "(20,4)", "cdf-gd",
        "6.29e-03", "265", "9.63e-06", "3.19e-15", "0.15",
        "6.29e-03", "863", "8.83e-10", "7.21e-16", "0.49"]
    assert lines[2].split() == [
        "(20,4)", "rgd",
        "6.29e-03", "179", "9.11e-06", "1.64e-14", "0.55",
        "6.29e-03", "953", "8.50e-10", "3.92e-14", "1.91"]


def test_csv_round_trips_floats_exactly():
    records = _fake_records()
    text = emit_table(records, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(records)
    for rec, row in zip(records, rows):
        assert float(row["fval"]) == rec.fval
        assert float(row["grad"]) == rec.grad
        assert float(row["feas"]) == rec.feas
        assert float(row["tol"]) == rec.tol
        assert int(row["iters"]) == rec.iters


def test_text_table_single_record():
    text = emit_table(_fake_records()[:1], "text")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("(20,4)")


def test_emit_table_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        emit_table([], "text")
    with pytest.raises(ValueError):
        emit_table(_fake_records(), "markdown")


# ------------------------------------------------------------------- profile

def test_timing_profile_phase_shares(tiny_config):
    cfg = load_config(tiny_config)
    profiles = timing_profile(cfg, iters=40)
    for solver_id, tb in profiles.items():
        assert abs(sum(tb["percent"].values()) - 100.0) <= 0.1
        if solver_id.startswith("cdf"):
            assert tb["percent"]["retraction"] == 0.0
            assert tb["percent"]["transport"] == 0.0
        else:
            assert tb["percent"]["retraction"] + tb["percent"]["transport"] > 0.0


def test_timing_profile_splits_hessvec_and_linesearch(monkeypatch):
    reports = {}

    def recording(solver_id, *args):
        reports[solver_id] = run_solver(solver_id, *args)
        return reports[solver_id]

    monkeypatch.setattr(harness_mod, "run_solver", recording)
    cfg = ExperimentConfig(problem={"id": "lsm", "n": 20, "p": 4, "seed": 0},
                           solvers=["cdf-gd", "cdf-tr"], tols=[1e-5], beta=0.5, x0_seed=3)
    profiles = timing_profile(cfg, iters=20)
    for sid, tb in profiles.items():
        assert tb["grad_norm"] == reports[sid].grad_norm
        ps = reports[sid].phase_seconds
        assert tb["seconds"]["hessvec"] == ps["hessvec"]
        assert tb["seconds"]["linesearch"] == ps["linesearch"]
        assert tb["seconds"]["gradient"] == ps["gradient"]
        assert abs(sum(tb["percent"].values()) - 100.0) <= 0.1
    assert profiles["cdf-tr"]["seconds"]["hessvec"] > 0.0
    assert profiles["cdf-gd"]["seconds"]["linesearch"] > 0.0


def test_timing_profile_runs_a_repeated_solver_once(tiny_config, monkeypatch):
    solved = []

    def recording(solver_id, *args):
        solved.append(solver_id)
        return run_solver(solver_id, *args)

    monkeypatch.setattr(harness_mod, "run_solver", recording)
    cfg = load_config(tiny_config)
    cfg.solvers = ["rgd", "cdf-lbfgs", "rgd"]
    profiles = timing_profile(cfg, iters=5)
    assert solved == list(profiles) == ["cdf-lbfgs", "rgd"]


def test_timing_profile_geometry_dominates_rgd_on_lsm_desk():
    cfg = ExperimentConfig(
        problem={"id": "lsm", "n": 100, "p": 10, "seed": 5, "a": 200.0, "b": 0.05},
        solvers=["rgd"], tols=[1e-5], beta=0.012, x0_seed=2)
    tb = timing_profile(cfg, iters=60)["rgd"]
    assert tb["percent"]["retraction"] + tb["percent"]["transport"] > 50.0


# ----------------------------------------------------------------------- cli

def test_cli_run_ok(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CFG)
    out = tmp_path / "results"
    code = cli_main(["run", "--config", str(path), "--solver", "cdf-lbfgs",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "cdf-lbfgs" in captured.out
    assert (out / "records.csv").exists()


def test_cli_run_json(tmp_path, capsys):
    # one JSON list whose objects carry the CSV columns, values to the bit
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CFG)
    out = tmp_path / "results"
    code = cli_main(["run", "--config", str(path), "--json", "--out", str(out)])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    with open(out / "records.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [row["solver"] for row in rows] == ["cdf-lbfgs", "rgd"]
    for row, line in zip(rows, table, strict=True):
        assert list(row) == list(line)
        assert all(str(v) == line[k] if isinstance(v, str) else v == float(line[k])
                   for k, v in row.items())
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nid = warp-drive\n")
    assert cli_main(["run", "--config", str(bad), "--json"]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


def test_cli_run_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[problem]\nid = warp-drive\n")
    code = cli_main(["run", "--config", str(path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def _lsm_cfg_with(line):
    key = line.split("=")[0].strip()
    kept = [ln for ln in LSM_CFG.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


@pytest.mark.parametrize("line,args", [
    ("max_iter = 0", ["run"]), ("beta = -1", ["run"]), ("eps_f = nan", ["run"]),
    ("max_iter = abc", ["run"]), ("max_iter 5", ["run"]),   # not key = value
    ("tols = 1e-4", ["run", "--tol", "-1"]), ("tols = 1e-4", ["run", "--tol", "nan"]),
    ("tols = 1e-4", ["profile", "--iters", "0"]),
    ("tols = 1e-4", ["run", "--seed", "-1"]),
    ("x0_seed = -3", ["run"]), ("x0_seed = 1.5", ["run"]), ("x0_seed = -3", ["profile"]),
    ("repetitions = 1.5", ["run"]), ("max_iter = 2.5", ["run"]),
    ("time_limit = abc", ["run"]), ("eps_f = abc", ["run"]), ("beta = abc", ["profile"]),
])
def test_cli_bad_run_settings_are_config_errors(tmp_path, capsys, line, args):
    path = tmp_path / "exp.cfg"
    path.write_text(_lsm_cfg_with(line))
    code = cli_main(args[:1] + ["--config", str(path)] + args[1:])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "profile"])
@pytest.mark.parametrize("text,named", [
    (LSM_CFG.replace("n = 20", "n = 101"), "[problem]"),             # symplectic sizes are even
    (LSM_CFG.replace("p = 4\n", ""), "[problem]"),                    # a required key missing
    (TJFD_CFG.replace("seed = 0", "seed = 0\ngama = 0.1"), "gama"),   # a misspelt key
    (LSM_CFG.replace("solvers = cdf-gd", "solvers ="), "solver"),
], ids=["odd-n", "missing-p", "misspelt-gamma", "no-solver"])
def test_cli_problem_and_solver_faults_are_config_errors(tmp_path, capsys, command, text, named):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    code = cli_main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "config error" in captured.err and named in captured.err


@pytest.mark.parametrize("line", ["b = nan", "a = inf"])
def test_cli_run_rejects_a_nan_or_inf_problem_parameter(tmp_path, capsys, line):
    # b = nan used to exit 0 with LineSearchFail rows holding NaN f and grad
    path = tmp_path / "exp.cfg"
    path.write_text(LSM_CFG.replace("seed = 0", "seed = 0\n" + line))
    code = cli_main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "config error" in captured.err
    assert f"[problem]: {line[0]} must be" in captured.err


def test_cli_unknown_run_keys_are_config_errors(tmp_path, capsys):
    # a misspelt budget and a key of the [problem] block, neither applied before
    path = tmp_path / "exp.cfg"
    path.write_text(LSM_CFG + "max_iters = 1\nseed = 1.5\n")
    code = cli_main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and "'max_iters'" in err


def test_cli_missing_config_file(capsys):
    code = cli_main(["run", "--config", "/no/such/file.cfg"])
    assert code == 1


def test_cli_profile(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(LSM_CFG)
    code = cli_main(["profile", "--config", str(path), "--iters", "10"])
    assert code == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("cdf-gd") and re.search(r" grad \d\.\de[+-]\d\d ", line)


def test_cli_profile_json(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(LSM_CFG)
    code = cli_main(["profile", "--config", str(path), "--iters", "10", "--json",
                     "--solver", "cdf-gd", "--solver", "rgd"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["cdf-gd", "rgd"]
    for row in out.values():
        assert row["iters"] == 10
        assert row["us_per_iter"] == pytest.approx(1e5 * row["total_s"])
        assert 0.0 < row["grad_norm"] < np.inf
        assert set(row["seconds"]) == set(row["percent"]) == set(ALL_PHASES) | {"other"}
        assert sum(row["percent"].values()) == pytest.approx(100.0, abs=0.1)


def test_cli_selftest(capsys):
    code = cli_main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "selftest passed" in out


def test_cli_selftest_json(capsys, monkeypatch):
    code = cli_main(["selftest", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out) == {"checks", "passed", "seconds"}
    assert out["passed"] is True and out["seconds"] > 0.0
    families = list(diagnostics_mod.battery_specs())
    assert len(out["checks"]) == len(diagnostics_mod.CHECKS) * len(families)
    assert {row["family"] for row in out["checks"]} == set(families)
    for row in out["checks"]:
        assert set(row) == {"check", "family", "ok", "value"} and row["ok"] is True
    # a failing check keeps the exit code 2 and reads passed: false
    failing = ("always fails", lambda spec: (False, 1.0))
    monkeypatch.setattr(diagnostics_mod, "CHECKS", diagnostics_mod.CHECKS + [failing])
    code = cli_main(["selftest", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["passed"] is False
    assert [row["ok"] for row in out["checks"] if row["check"] == "always fails"] == [False] * len(families)
