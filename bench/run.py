"""Time-to-tolerance benchmark of orthopt on three workloads.

    python3 bench/run.py --workload {lsm-cdf,tjfd,indef} --seed N --seconds S --trace {0,1}

Run it from the repository root.  One process runs one workload as a closed
loop: each solve starts after the previous one ends.  ``--trace 0`` repeats
passes over the workload's solves for about ``--seconds`` seconds (at least
one pass), sets the workload up afresh before each solve, and reports the
end-to-end metrics as medians.  ``--trace 1`` runs the solves from the first
start untraced and then traced on the same inputs, requires both to agree
bit for bit, reports the per-layer metrics and writes every span to
``.bench_out/``.  The metric names and units
are the ones declared in ``BENCHMARK.json``.  The last line of standard output
is the JSON result; a solve that fails its checks is counted in ``failed``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one BLAS thread, set before NumPy loads; ORTHOPT_THREADS stays unset
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("lsm-cdf", "tjfd", "indef")
# solves still running this long after start end as TimeLimit, so the run
# exits within three minutes however slow the program gets
RUN_DEADLINE_S = 150.0
OUT_DIR = os.path.join(ROOT, ".bench_out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0, help="draws the start point (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_info(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "env": {k: os.environ.get(k) for k in (*BLAS_ENV, "ORTHOPT_THREADS")},
    }


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def print_pass(label, p):
    for r in p.results:
        verdict = "FAIL " + "; ".join(r.failures) if r.failures else "ok"
        evals = "/".join(str((r.phase_counts or {}).get(k, 0)) for k in ("objective", "gradient", "hessvec"))
        print(f"{label:8s} {r.solver:10s} start={r.start} {r.status:10s} iters={r.iters:<6d} s={r.seconds:8.3f} "
              f"f/g/hv={evals} f={r.f!r} feas={r.feas:.2e} rounds={r.rounds} {verdict}")
    print(f"{label:8s} pass wall_s={p.wall_s:.3f}")


def untraced_run(wl, args, deadline, workloads):
    # Every solve gets an instance of its own, so the set-ups are spread over
    # the run: the speed of a shared machine drifts over tens of seconds.
    setups = []

    def fresh_instance():
        t0 = time.perf_counter()
        inst = workloads.setup(wl, args.seed)
        setups.append(time.perf_counter() - t0)
        return inst

    passes, durations = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workloads.run_pass(wl.solves, fresh_instance, deadline))
        durations.append(time.perf_counter() - t0)
        print_pass(f"pass{len(passes)}", passes[-1])
        if time.perf_counter() - t_start + statistics.median(durations) > args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cdf_s": statistics.median(p.route_seconds("cdf") for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = sum(len(p.results) for p in passes)
    return metrics, attempted, sum(p.failed for p in passes)


def traced_run(wl, args, deadline, workloads, tracing, machine, t_origin):
    # one solve per solver: the solves from the first start
    solves = [(sid, k) for sid, k in wl.solves if k == 0]
    inst = workloads.setup(wl, args.seed)
    plain = workloads.run_pass(solves, lambda: inst, deadline)
    print_pass("untraced", plain)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_inst = workloads.setup(wl, args.seed, build=tracer.wrap("problems.build", wl.build),
                                      instrument=tracer.instrument)
        traced = workloads.run_pass(solves, lambda: traced_inst, deadline, hooks=tracer)
    print_pass("traced", traced)
    # a tracer that changed the iterates would measure a different program
    mismatched = [a.solver for a, b in zip(plain.results, traced.results)
                  if (a.status, a.iters, repr(a.f), a.error) != (b.status, b.iters, repr(b.f), b.error)]
    for sid in mismatched:
        print(f"traced   {sid:10s} FAIL differs from the untraced solve")
    metrics = tracing.layer_metrics(tracer, plain, traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "machine": machine,
                   **tracer.dump(t_origin)}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    attempted = len(plain.results) + len(traced.results)
    return metrics, attempted, plain.failed + traced.failed + len(mismatched)


def main(argv=None):
    args = parse_args(argv)
    t_origin = time.perf_counter()
    deadline = t_origin + RUN_DEADLINE_S
    os.environ.update(BLAS_ENV)
    os.environ.pop("ORTHOPT_THREADS", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "orthopt")):
        sys.exit(f"bench: no orthopt package under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)
    import numpy as np
    import tracing
    import workloads

    end_to_end, per_layer = declared_metrics()
    machine = machine_info(np)
    print("machine", json.dumps(machine))
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        values, attempted, failed = traced_run(wl, args, deadline, workloads, tracing, machine, t_origin)
        units = per_layer
    else:
        values, attempted, failed = untraced_run(wl, args, deadline, workloads)
        units = end_to_end
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for name in units:
        print(f"{name} = {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
