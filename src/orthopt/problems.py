"""Benchmark problem generators with objective / gradient / Hessian oracles.

Three families: a quadratic trace objective on symplectic frames, an
extrinsic-mean (matrix approximation) objective on indefinite frames, and a
joint diagonalization objective for stacks of third-order tensors under a
cosine-transform product.  Every generator is deterministic per seed (PCG64
streams) and checks its own gradient against central differences on
construction.
"""

import numpy as np

from .manifolds import FeasiblePoint, IndefiniteStiefel, SymplecticStiefel, TensorStiefel
from .tensor import qr_posdiag

GRAD_CHECK_POINTS = 5      # random points of the central-difference gradient check
GRAD_CHECK_STEP = 1e-5     # its difference step along a unit direction
GRAD_CHECK_TOL = 1e-6      # its relative gap allowed between grad and the difference


class Problem:
    """Smooth objective attached to a manifold.

    f maps a point of shape ``spec.batch + (n, p)`` to a scalar, grad returns
    the Euclidean gradient, hessvec (optional) the Euclidean Hessian action.
    Each oracle takes the point's store as an optional last argument,
    ``f(X, store=None)``, ``grad(X, store=None)``, ``hessvec(X, V,
    store=None)``: a dict that belongs to the one point X, in which an oracle
    may keep what the others at X reuse (a dominant product, say).  An
    oracle may ignore it, and with ``store=None`` it computes afresh.
    """

    def __init__(self, spec, f, grad, hessvec=None, name="problem", metadata=None):
        self.spec = spec
        self.f = f
        self.grad = grad
        self.hessvec = hessvec
        self.name = name
        self.metadata = dict(metadata or {})
        self._check_gradient()

    def _check_gradient(self):
        """grad against central differences of f at GRAD_CHECK_POINTS random points."""
        rng = np.random.default_rng(1234)
        step = GRAD_CHECK_STEP
        for _ in range(GRAD_CHECK_POINTS):
            X = self.spec.random_ambient(rng)
            X /= np.linalg.norm(X)
            V = self.spec.random_ambient(rng)
            V /= np.linalg.norm(V)
            fd = (self.f(X + step * V) - self.f(X - step * V)) / (2.0 * step)
            an = float(np.vdot(self.grad(X), V))
            if abs(fd - an) > GRAD_CHECK_TOL * max(1.0, abs(fd)):
                raise ValueError(
                    f"{self.name}: gradient check failed ({an:.9e} vs fd {fd:.9e})")

    def __repr__(self):
        return f"Problem({self.name}, spec={self.spec!r})"


def _memo(make):
    """make(X), kept in the store of X under the key make, which is each built
    problem's own; with no store it is formed afresh."""
    def get(X, store=None):
        if store is None:
            return make(X)
        if make not in store:
            store[make] = make(X)
        return store[make]
    return get


def build_lsm(n, p, seed=0, a=None, b=None):
    """Least-squares matching objective tr(X^T A X N) on symplectic frames.

    A = U diag(lambda) U^T with a random orthogonal U and decaying spectrum
    lambda_i = a^(1-i) + b; N is diagonal with mu_j = 0.1 exp(-j / p).  By
    default a > 1 and b in (0, 2) are drawn from the seed; both can be fixed
    explicitly, e.g. to put the instance in a strong-decay regime where the
    small default penalty weight is safely above its exactness threshold.

    No n x n matrix is kept.  A = b I + sum_i a^(1-i) u_i u_i^T is held by
    its factors and applied as A X = b X + U_r (d * (U_r^T X)) in O(npr),
    where d_i = a^(1-i) for the r leading i with a^(1-i) > eps b.  Each
    dropped term is below eps b <= eps lambda_min(A), under the rounding a
    stored dense A carries, so r is not a setting.  U_r is the positive-
    diagonal QR factor of the first r columns of the seed's n x n Gaussian,
    which is drawn in full so that the seed stream and the drawn a, b stay
    the same; it equals the first r columns of the full QR factor to
    rounding.  At a = 200, b = 0.05 (every shipped config and the
    benchmark) r = 8.  Slow decay is the worst case: a drawn a below about
    1.08 at n >= 1000 gives r near n, and each product then costs up to
    twice a dense one.
    """
    spec = SymplecticStiefel(n, p)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    a = 1.0 + rng.uniform(0.0, 1.0) if a is None else float(a)
    b = rng.uniform(0.0, 2.0) if b is None else float(b)
    if a <= 1.0 or b <= 0.0:
        raise ValueError("need decay base a > 1 and spectrum shift b > 0")
    d = a ** (1.0 - np.arange(1.0, n + 1.0))
    d = d[d > np.finfo(float).eps * b]
    U, _ = qr_posdiag(G[:, :d.size])
    mu = 0.1 * np.exp(-np.arange(1.0, p + 1.0) / (p / 2.0))
    dmu, bmu = np.outer(d, mu), b * mu

    def AN(X):
        """A X N = b X N + U_r ((U_r^T X) * d mu^T), in O(npr)."""
        out = U @ ((U.T @ X) * dmu)
        out += X * bmu
        return out

    # the value and the gradient share the one product A X N
    AXN = _memo(AN)

    def f(X, store=None):
        return float(np.vdot(X, AXN(X, store)))

    def grad(X, store=None):
        return 2.0 * AXN(X, store)

    def hessvec(X, V, store=None):
        return 2.0 * AN(V)

    meta = {"problem": "lsm", "n": n, "p": p, "seed": seed, "a": a, "b": b,
            "beta_default": 0.012, "rng": "pcg64"}
    prob = Problem(spec, f, grad, hessvec, name="lsm", metadata=meta)
    prob.U = U
    prob.d = d
    prob.N_diag = mu
    return prob


def build_extrinsic_mean(n, p, k, p_k, n_samples=1000, seed=0):
    """Matrix approximation ||X - A||^2 on indefinite frames.

    The samples X_i orbit a feasible anchor under block-orthogonal right
    actions, so each stays feasible; A is their plain average, which in
    general leaves the feasible set.
    """
    spec = IndefiniteStiefel(n, p, k, p_k)
    p_m = p - p_k
    ss = np.random.SeedSequence(seed)
    seed_y0, seed_w = ss.spawn(2)
    Y0 = spec.random_feasible(seed_y0)
    rng = np.random.default_rng(seed_w)
    samples = np.empty((n_samples, n, p))
    W = np.zeros((p, p))    # block diagonal: its off-diagonal blocks stay zero
    for i in range(n_samples):
        if p_k:
            W[:p_k, :p_k] = qr_posdiag(rng.standard_normal((p_k, p_k)))[0]
        if p_m:
            W[p_k:, p_k:] = qr_posdiag(rng.standard_normal((p_m, p_m)))[0]
        samples[i] = Y0.X @ W
        FeasiblePoint(spec, samples[i], tol=1e-10)     # FeasibilityError when it is not
    A = samples.mean(axis=0)

    def f(X, store=None):
        d = X - A
        return float(np.vdot(d, d))

    def grad(X, store=None):
        return 2.0 * (X - A)

    def hessvec(X, V, store=None):
        return 2.0 * np.asarray(V, dtype=float)

    meta = {"problem": "extrinsic-mean", "n": n, "p": p, "k": k, "p_k": p_k,
            "samples": n_samples, "seed": seed, "beta_default": 0.5, "rng": "pcg64"}
    prob = Problem(spec, f, grad, hessvec, name="extrinsic-mean", metadata=meta)
    prob.samples = samples
    prob.mean = A
    return prob


def build_tensor_jfd(n, p, l, n_samples=10, gamma=0.5, seed=0):
    """Joint diagonalization of tensor stacks under a cosine-transform product.

    Sample tensors are congruences of diagonal-slice cores by a shared
    orthogonal tensor, plus unit-norm noise scaled by gamma.  Everything is
    evaluated face by face in the transform domain: ``sample_mats`` has shape
    (samples, l, n, n), a point is an (l, n, p) stack, and the objective is
    the squared off-diagonal mass of the faces of X^T D_i X.
    """
    if gamma < 0:
        raise ValueError("noise level must be nonnegative")
    spec = TensorStiefel(n, p, l)
    ss = np.random.SeedSequence(seed)
    seed_u, seed_d = ss.spawn(2)
    U = spec.random_feasible(seed_u)
    rng = np.random.default_rng(seed_d)
    mats = np.empty((n_samples, l, n, n))
    for i in range(n_samples):
        core = rng.standard_normal((l, 1, p))
        mats[i] = (U.X * core) @ U.X.mT
        noise = rng.standard_normal((l, n, n))
        if gamma > 0:
            mats[i] += gamma * noise / np.linalg.norm(noise)
    offdiag = 1.0 - np.eye(p)

    # the products by the sample faces at X, shared by every oracle there
    @_memo
    def faces(X):
        DX = mats @ X
        return DX, (X.mT @ DX) * offdiag, mats.mT @ X

    def f(X, store=None):
        O = faces(X, store)[1]
        return float(np.vdot(O, O))

    def grad(X, store=None):
        DX, O, MX = faces(X, store)
        return 2.0 * (MX @ O + DX @ O.mT).sum(axis=0)

    def hessvec(X, V, store=None):
        V = np.asarray(V, dtype=float)
        (DX, O, MX), DV = faces(X, store), mats @ V
        Od = (V.mT @ DX + X.mT @ DV) * offdiag
        return 2.0 * (mats.mT @ V @ O + MX @ Od + DV @ O.mT + DX @ Od.mT).sum(axis=0)

    meta = {"problem": "tensor-jfd", "n": n, "p": p, "l": l, "samples": n_samples,
            "gamma": gamma, "seed": seed, "beta_default": 0.8, "rng": "pcg64",
            "transform": "dct"}
    prob = Problem(spec, f, grad, hessvec, name="tensor-jfd", metadata=meta)
    prob.exact_point = U
    prob.sample_mats = mats
    return prob


def toy_problem(spec, seed=0):
    """Smooth nonquadratic objective usable on any manifold (for checks)."""
    rng = np.random.default_rng(seed)
    A0 = spec.random_ambient(rng)
    A0 /= np.linalg.norm(A0)

    def f(X, store=None):
        # NumPy arithmetic, so a far trial overflows to inf and is rejected
        # where a Python float power would raise OverflowError
        r, v = X - A0, np.vdot(X, X)
        return 0.5 * float(np.vdot(r, r)) + 0.25 * float(v * v)

    def grad(X, store=None):
        return (X - A0) + float(np.vdot(X, X)) * X

    def hessvec(X, V, store=None):
        V = np.asarray(V, dtype=float)
        return V + 2.0 * float(np.vdot(X, V)) * X + float(np.vdot(X, X)) * V

    return Problem(spec, f, grad, hessvec, name="toy",
                   metadata={"problem": "toy", "seed": seed})


# The builders by problem id.  A config's [problem] keys, less ``id``, are
# passed to the builder as keyword arguments, so its signature is the schema
# of the block.
PROBLEM_BUILDERS = {
    "lsm": build_lsm,
    "extrinsic-mean": build_extrinsic_mean,
    "tensor-jfd": build_tensor_jfd,
}
