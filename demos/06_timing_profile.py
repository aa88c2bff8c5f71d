"""Where the time goes: penalty solvers vs Riemannian solvers.

Each method runs a fixed 100-iteration budget on the same problem.  The
Riemannian baselines spend most of their time in retractions and
projection-based transports; the penalty solvers never call either.  The
line search's own bookkeeping and the trust region's Hessian-vector
products have columns of their own.
"""

from orthopt.harness import ExperimentConfig, timing_profile

config = ExperimentConfig(
    problem={"id": "lsm", "n": 100, "p": 10, "seed": 5, "a": 200.0, "b": 0.05},
    solvers=["cdf-gd", "cdf-cg", "rgd", "rcg"],
    tols=[1e-5],
    beta=0.012,
    x0_seed=2,
)

profiles = timing_profile(config, iters=100)

columns = ("gradient", "hessvec", "retraction", "transport", "objective", "linesearch", "other")
print(f"{'solver':<10} {'total[s]':>9}" + "".join(f" {k:>11}" for k in columns))
for sid, row in profiles.items():
    print(f"{sid:<10} {row['total_s']:9.3f}" + "".join(f" {row['percent'][k]:10.1f}%" for k in columns))

print("\npenalty solvers: geometry share is exactly zero by construction;")
print("rgd/rcg: the projection inside the transport is one p x p Lyapunov")
print("solve per call; the retraction phase, one or a few dissolving steps of")
print("one phi and two products each plus the eigendecomposition that the new")
print("point's projections share, takes the largest share here.")
