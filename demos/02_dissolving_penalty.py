"""The constraint-dissolving operator and the exact penalty it induces.

A(X) = 1.5 X - 0.5 X phi(X)^T X fixes every feasible point and flattens the
constraint to first order, so h = f(A(X)) + (beta/2) ||X^T phi(X) - I||^2
can be handed to any unconstrained solver.  This script shows the three
properties that make this work, then the feasibility post-processing loop.
"""

import numpy as np

import orthopt as op
from orthopt.penalty import dCA, dissolve, penalty_gradient, penalty_value, postprocess

spec = op.symplectic_stiefel(12, 4)
X = spec.random_feasible(seed=0).X
rng = np.random.default_rng(1)

print("=== fixed point on the manifold ===")
print(f"||A(X) - X|| / ||X|| = {np.linalg.norm(dissolve(spec, X) - X) / np.linalg.norm(X):.2e}")

print("\n=== the composite differential vanishes on the manifold ===")
Z = spec.random_ambient(rng)
Z /= np.linalg.norm(Z)
print(f"||D(C o A)(X)[Z]|| = {np.linalg.norm(dCA(spec, X, Z)):.2e}")

print("\n=== quadratic contraction of the constraint residual ===")
print(f"{'step':>8} {'||C(Y)||':>12} {'||C(A(Y))||':>12}")
for t in (1e-1, 1e-2, 1e-3):
    Y = X + t * Z
    c0 = np.linalg.norm(op.constraint(spec, Y))
    c1 = np.linalg.norm(op.constraint(spec, dissolve(spec, Y)))
    print(f"{t:8.0e} {c0:12.3e} {c1:12.3e}")
print("one application of A squares the residual (inside the basin)")

print("\n=== penalty gradient against central differences ===")
prob = op.toy_problem(spec, seed=2)
pf = op.PenaltyFunction(spec, prob, beta=0.7)
Y = X + 0.1 * Z
g = penalty_gradient(pf, Y)
V = spec.random_ambient(rng)
V /= np.linalg.norm(V)
fd = (penalty_value(pf, Y + 1e-5 * V) - penalty_value(pf, Y - 1e-5 * V)) / 2e-5
print(f"directional derivative: analytic {np.vdot(g, V):+.10e}")
print(f"                        central  {fd:+.10e}")

print("\n=== post-processing drives feasibility to the floor ===")
Y = X + 1e-2 * Z
point, rounds = postprocess(spec, Y, eps_f=1e-12)
print(f"start residual {np.linalg.norm(op.constraint(spec, Y)):.2e}; "
      f"after {rounds} rounds: {point.feas:.2e}")
