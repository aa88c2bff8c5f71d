"""Where the time goes: penalty solvers vs Riemannian solvers.

Each method runs a fixed 100-iteration budget on the same problem.  The
Riemannian baselines spend most of their time in retractions and
projection-based transports; the penalty solvers never call either.
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

header = f"{'solver':<10} {'total[s]':>9}" + "".join(
    f" {k:>11}" for k in ("gradient", "retraction", "transport", "objective", "other"))
print(header)
for sid, tb in profiles.items():
    row = f"{sid:<10} {tb.total:9.3f}"
    for key in ("gradient", "retraction", "transport", "objective", "other"):
        row += f" {tb.percent[key]:10.1f}%"
    print(row)

print("\npenalty solvers: geometry share is exactly zero by construction;")
print("rgd/rcg: the projection inside the transport is one p x p Lyapunov")
print("solve per call, so the n x n Cayley solve of the retraction takes the")
print("largest share here.")
