"""Tour of the six manifold families and their shared geometric toolbox.

Every manifold here is the solution set of X^T phi(X) = I for some linear,
self-adjoint phi.  The same projection / gradient / retraction code serves
all of them; a family declares only phi and the p x p matrix q of its
companion psi(T) = q^T T q.  The retraction is the same for every family:
dissolving steps A(Y) = 1.5 Y - 0.5 Y phi(Y)^T Y from Y = X + Z until the
residual is below 1e-12, which reads phi alone.  Tensor frames are stacks of
l faces of shape (l, n, p); every product and transpose acts face by face.
"""

import numpy as np

import orthopt as op
from orthopt.manifolds import project_tangent, random_tangent, tangent_test

specs = [
    op.stiefel(8, 3),
    op.generalized_stiefel(8, 3, seed=0),
    op.symplectic_stiefel(8, 4),
    op.indefinite_stiefel(9, 3, k=5, p_k=2),
    op.hyperbolic(8, 3, neg=3, seed=0),
    op.tensor_stiefel(4, 2, 3),
]

print("=== feasible points and constraint residuals ===")
for spec in specs:
    pt = spec.random_feasible(seed=1)
    print(f"{spec.name:<22} point shape {pt.X.shape}, ||X^T phi(X) - I|| = {pt.feas:.2e}")

print("\n=== tangent projection and the normal space ===")
for spec in specs:
    pt = spec.random_feasible(seed=2)
    rng = np.random.default_rng(3)
    D = spec.random_ambient(rng)
    Z = project_tangent(spec, pt, D)
    _, resid = tangent_test(spec, pt, Z)
    # normal vectors phi(X) (T^T + psi(T)) are annihilated by the projection
    N = pt.phiX @ spec.gen_sym(spec.random_gram(rng))
    killed = np.linalg.norm(project_tangent(spec, pt, N)) / np.linalg.norm(N)
    print(f"{spec.name:<22} tangency residual {resid:.2e}, "
          f"normal component suppressed to {killed:.2e}")

print("\n=== retractions: feasibility and first-order accuracy ===")
for spec in specs:
    pt = spec.random_feasible(seed=4)
    Z = random_tangent(spec, pt, seed=5)
    Z /= np.linalg.norm(Z)
    errs = [np.linalg.norm(spec.retract(pt, t * Z).X - (pt.X + t * Z))
            for t in (1e-2, 1e-3, 1e-4)]
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    new = spec.retract(pt, 0.5 * Z)
    print(f"{spec.name:<22} step feasibility {new.feas:.2e}, "
          f"asymptotic order {slope:.2f}")

print("\nAll families share one code path: phi/psi are the only moving parts.")
