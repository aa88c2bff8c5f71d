"""Benchmark problem generators with objective / gradient / Hessian oracles.

Three families: a quadratic trace objective on symplectic frames, an
extrinsic-mean (matrix approximation) objective on indefinite frames, and a
joint diagonalization objective for stacks of third-order tensors under a
cosine-transform product.  Every generator is deterministic per seed (PCG64
streams) and checks its own gradient against central differences on
construction.
"""

import math

import numpy as np

from .manifolds import FeasibilityError, IndefiniteStiefel, SymplecticStiefel, TensorStiefel, _size
from .tensor import qr_posdiag

GRAD_CHECK_POINTS = 5      # random points of the central-difference gradient check
GRAD_CHECK_STEP = 1e-5     # its difference step along a unit direction
GRAD_CHECK_TOL = 1e-6      # its relative gap allowed between grad and the difference
SAMPLE_TOL = 1e-10         # largest constraint residual of an extrinsic-mean sample
CHECK_BLOCK_BYTES = 1 << 18     # at most the size of phi of one block of samples checked at once


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
        """grad against central differences of f at GRAD_CHECK_POINTS random
        points; a NaN value or gradient fails it."""
        rng = np.random.default_rng(1234)
        step = GRAD_CHECK_STEP
        for _ in range(GRAD_CHECK_POINTS):
            X = self.spec.random_ambient(rng)
            X /= np.linalg.norm(X)
            V = self.spec.random_ambient(rng)
            V /= np.linalg.norm(V)
            fd = (self.f(X + step * V) - self.f(X - step * V)) / (2.0 * step)
            an = float(np.vdot(self.grad(X), V))
            if not abs(fd - an) <= GRAD_CHECK_TOL * max(1.0, abs(fd)):
                raise ValueError(
                    f"{self.name}: gradient check failed ({an:.9e} vs fd {fd:.9e})")

    def __repr__(self):
        return f"Problem({self.name}, spec={self.spec!r})"


def _sample_count(n_samples):
    """n_samples as an int >= 1, or ValueError naming it."""
    n_samples = _size("n_samples", n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return n_samples


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
    A given a must be in (1, inf) and b in (0, inf), or ValueError.

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
    n, p = spec.n, spec.p       # the checked sizes, as ints
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    a = 1.0 + rng.uniform(0.0, 1.0) if a is None else float(a)
    b = rng.uniform(0.0, 2.0) if b is None else float(b)
    # written so that NaN fails them
    if not 1.0 < a < math.inf:
        raise ValueError(f"a must be > 1 and finite, got {a}")
    if not 0.0 < b < math.inf:
        raise ValueError(f"b must be > 0 and finite, got {b}")
    d = a ** (1.0 - np.arange(1.0, n + 1.0))
    d = d[d > np.finfo(float).eps * b]
    U, _ = qr_posdiag(G[:, :d.size])
    mu = 0.1 * np.exp(-np.arange(1.0, p + 1.0) / (p / 2.0))
    # b mu as a full n x p array: a same-shape product takes about half the
    # time of one that broadcasts a row over n rows, with the same bits
    dmu, bmu = np.outer(d, mu), np.tile(b * mu, (n, 1))

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

    The samples X_i = Y0 W_i orbit a feasible anchor Y0 under block-orthogonal
    right actions W_i = diag(Q_k, Q_m), so each stays feasible; A is their
    plain average, which in general leaves the feasible set.  n_samples is an
    integral number >= 1.  Each sample draws its p_k x p_k block, then its
    p_m x p_m block; each block stack is orthonormalized by one stacked QR,
    and all samples come from one stacked product Y0 W.  Each sample's
    residual ||X^T phi(X) - I|| must be at most 1e-10, or FeasibilityError
    names the first sample that exceeds it.
    """
    n_samples = _sample_count(n_samples)
    spec = IndefiniteStiefel(n, p, k, p_k)
    n, p, k, p_k = spec.n, spec.p, spec.k, spec.p_k     # the checked sizes, as ints
    p_m = p - p_k
    ss = np.random.SeedSequence(seed)
    seed_y0, seed_w = ss.spawn(2)
    Y0 = spec.random_feasible(seed_y0).X
    rng = np.random.default_rng(seed_w)
    # samples is allocated before the stack work: allocated after it, it
    # cannot take the block a previous build freed, and the peak RSS of
    # repeated builds grows by about one samples array
    samples = np.empty((n_samples, n, p))
    # row i is sample i's p_k x p_k block, then its p_m x p_m block, as drawn
    G = rng.standard_normal((n_samples, p_k * p_k + p_m * p_m))
    W = np.zeros((n_samples, p, p))     # block diagonal: its off-diagonal blocks stay zero
    W[:, :p_k, :p_k] = qr_posdiag(G[:, :p_k * p_k].reshape(n_samples, p_k, p_k))[0]
    W[:, p_k:, p_k:] = qr_posdiag(G[:, p_k * p_k:].reshape(n_samples, p_m, p_m))[0]
    del G
    np.matmul(Y0, W, out=samples)
    del W
    # each sample's residual ||X^T phi(X) - I||, by stacked products over
    # blocks of samples: phi of a block stays in cache, and no temporary the
    # size of the samples adds to the peak
    block = max(1, CHECK_BLOCK_BYTES // (8 * n * p))
    for lo in range(0, n_samples, block):
        Y = samples[lo:lo + block]
        C = Y.mT @ spec.phi(Y)
        C -= np.eye(p)
        res = np.linalg.norm(C, axis=(1, 2))
        ok = res <= SAMPLE_TOL      # NaN fails it
        if not ok.all():
            i = int(np.argmin(ok))
            raise FeasibilityError(f"sample {lo + i}: constraint residual {res[i]:.3e} exceeds "
                                   f"tolerance {SAMPLE_TOL:.1e} on {spec.name}")
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
    evaluated face by face in the transform domain: a point is an (l, n, p)
    stack, and the objective is the squared off-diagonal mass of the faces
    of O_i = X^T D_i X.  n_samples is an integral number >= 1 and gamma in
    [0, inf).

    The s sample matrices and their transposes are held in one stacked
    operator W of shape (l, 2 s n, n), rows interleaved over the 2 s
    matrices, so that (W @ Y).reshape(l, n, 2 s p) is the face stack of
    [D_1 Y | ... | D_s Y | D_1^T Y | ... | D_s^T Y] without a copy.  At a
    point X the oracles share DX and the masked row stack
    R = [O_1^T; ...; O_s^T; O_1; ...; O_s] = (DX^T X) * offdiag, and each
    sum over the samples is the inner dimension of one product per face:
    f = ||O||^2, grad = 2 DX R and hessvec = 2 (DV R + DX dR).
    ``sample_mats`` is a read-only (samples, l, n, n) view of the D_i in W.
    """
    n_samples = _sample_count(n_samples)
    if not 0.0 <= gamma < math.inf:     # written so that NaN fails it
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    spec = TensorStiefel(n, p, l)
    n, p, l = spec.n, spec.p, spec.l        # the checked sizes, as ints
    s = n_samples
    ss = np.random.SeedSequence(seed)
    seed_u, seed_d = ss.spawn(2)
    U = spec.random_feasible(seed_u)
    rng = np.random.default_rng(seed_d)
    # rows[f, r, j] is row r of face f of D_{j+1} for j < s, of D_{j-s+1}^T after
    rows = np.empty((l, n, 2 * s, n))
    mats = rows[:, :, :s].transpose(2, 0, 1, 3)
    for i in range(s):
        core = rng.standard_normal((l, 1, p))
        mats[i] = (U.X * core) @ U.X.mT
        noise = rng.standard_normal((l, n, n))
        if gamma > 0:
            mats[i] += gamma * noise / np.linalg.norm(noise)
    rows[:, :, s:] = mats.mT.transpose(1, 2, 0, 3)
    # read-only, so that the D_i and D_i^T halves cannot come to disagree
    rows.flags.writeable = mats.flags.writeable = False
    W = rows.reshape(l, 2 * s * n, n)
    mask = np.tile(1.0 - np.eye(p), (2 * s, 1))

    def stacked(Y):
        """[D_1 Y | ... | D_s Y | D_1^T Y | ... | D_s^T Y], face by face."""
        return (W @ Y).reshape(l, n, 2 * s * p)

    # the products by the sample faces at X, shared by every oracle there
    @_memo
    def faces(X):
        DX = stacked(X)
        return DX, (DX.mT @ X) * mask

    def f(X, store=None):
        O = faces(X, store)[1][:, s * p:]
        return float(np.vdot(O, O))

    def grad(X, store=None):
        DX, R = faces(X, store)
        return 2.0 * (DX @ R)

    def hessvec(X, V, store=None):
        V = np.asarray(V, dtype=float)
        (DX, R), DV = faces(X, store), stacked(V)
        Rd = (DV.mT @ X + DX.mT @ V) * mask
        return 2.0 * (DV @ R + DX @ Rd)

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
