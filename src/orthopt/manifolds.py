"""Manifolds of the form  M = { X in F : X^T phi(X) = I }  and their geometry.

Each manifold is described by a linear, one-to-one, self-adjoint map phi on a
subspace F of matrices, together with a companion map psi on the span G of
cross-Gram matrices satisfying  phi(X T) = phi(X) psi(T).  In all six concrete
families psi(T) = q^T T q for one orthogonal p x p matrix q that is symmetric
or skew; everything downstream (projections, gradients, retractions, the
dissolving penalty) is written against this interface.
"""

import numpy as np

from .linalg import NoUniqueSolutionError, lyapunov_solve, skew, sym
from .tensor import TransformMatrix, dct_transform, diag_fold, diag_unfold, mode3_product, qr_posdiag


class FeasibilityError(ValueError):
    """Point violates X^T phi(X) = I beyond the requested tolerance."""


class SubspaceError(ValueError):
    """Matrix has mass outside the structural subspace F."""


class RetractError(RuntimeError):
    """Retraction step too large (singular or indefinite local system)."""


class ThetaDegenerateError(np.linalg.LinAlgError):
    """Normal equations of the projection are singular; carries the minimum-norm solution."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


class FeasiblePoint:
    """A manifold point with its phi image and Gram matrix cached."""

    __slots__ = ("spec", "X", "phiX", "gram", "feas", "tol")

    def __init__(self, spec, X, tol=1e-8):
        X = np.asarray(X, dtype=float)
        self.spec = spec
        self.X = X
        self.phiX = spec.phi(X)
        self.gram = X.T @ self.phiX
        self.feas = np.linalg.norm(self.gram - np.eye(spec.p))
        self.tol = tol
        if not np.isfinite(self.feas) or self.feas > tol:
            raise FeasibilityError(
                f"constraint residual {self.feas:.3e} exceeds tolerance {tol:.1e} on {spec.name}")

    @property
    def shape(self):
        return self.X.shape


def _orthonormalize_rows(vecs, drop_tol=1e-10):
    # SVD-based row-space basis; rows with tiny singular value are dropped
    U, s, Vt = np.linalg.svd(vecs, full_matrices=False)
    keep = s > drop_tol * s[0]
    return Vt[keep]


class ManifoldSpec:
    """Base class bundling (phi, psi), the subspace F, and a retraction.

    ``q`` is the orthogonal p x p matrix of psi(T) = q^T T q; None stands
    for the identity.  q is symmetric or skew, and S1 = {q^T W} with W of
    the same symmetry.
    """

    name = "generic"
    q = None

    def __init__(self, n, p):
        self.n = int(n)
        self.p = int(p)
        if self.n <= 0 or self.p <= 0 or self.p > self.n:
            raise ValueError(f"bad ambient dimensions ({n}, {p})")
        self._s1 = None

    # --- maps defining the manifold -------------------------------------
    def phi(self, X):
        raise NotImplementedError

    def psi(self, T):
        T = np.asarray(T, dtype=float)
        return T if self.q is None else self.q.T @ T @ self.q

    def gen_sym(self, T):
        """Generalized symmetrization T^T + psi(T)."""
        return T.T + self.psi(T)

    # --- the structural subspace F (all of R^{n x p} unless overridden) --
    def project_subspace(self, Y):
        return np.asarray(Y, dtype=float)

    def subspace_residual(self, Y):
        return 0.0

    def random_ambient(self, rng):
        return rng.standard_normal((self.n, self.p))

    def random_gram(self, rng):
        """Random element of G = span{X1^T X2 : X1, X2 in F}."""
        return rng.standard_normal((self.p, self.p))

    # --- span of cross-Grams G and the range S1 of gen_sym ---------------
    def g_basis(self):
        """Orthonormal basis of G = span{X1^T X2}; canonical unless overridden."""
        q = self.p
        basis = np.zeros((q * q, q, q))
        idx = 0
        for i in range(q):
            for j in range(q):
                basis[idx, i, j] = 1.0
                idx += 1
        return basis

    def s1_basis(self):
        """Orthonormal basis of S1, the gen_sym image of G."""
        if self._s1 is None:
            images = np.stack([self.gen_sym(T) for T in self.g_basis()])
            flat = _orthonormalize_rows(images.reshape(images.shape[0], -1))
            self._s1 = flat.reshape(-1, self.p, self.p)
        return self._s1

    # --- manifold-specific pieces ----------------------------------------
    def retract(self, point, Z):
        raise NotImplementedError

    def random_feasible(self, seed=0):
        raise NotImplementedError

    def record(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, p={self.p})"


# -------------------------------------------------------------------------
# free functions over a spec (the geometric toolbox)
# -------------------------------------------------------------------------

def constraint(spec, X):
    """Residual X^T phi(X) - I; X must lie in the subspace F."""
    X = np.asarray(X, dtype=float)
    if spec.subspace_residual(X) > 1e-10 * (1.0 + np.linalg.norm(X)):
        raise SubspaceError(f"input leaves the structural subspace of {spec.name}")
    return X.T @ spec.phi(X) - np.eye(spec.p)


def gen_sym(spec, T):
    return spec.gen_sym(np.asarray(T, dtype=float))


def tangent_test(spec, point, Z, tol=1e-8):
    """Check X^T phi(Z) + Z^T phi(X) = 0; returns (ok, residual)."""
    X = point.X if isinstance(point, FeasiblePoint) else np.asarray(point, float)
    phiX = point.phiX if isinstance(point, FeasiblePoint) else spec.phi(X)
    resid = np.linalg.norm(X.T @ spec.phi(Z) + Z.T @ phiX)
    return bool(resid <= tol), resid


def theta_lstsq(spec, point, D):
    """Coefficient matrix of the normal component of D.

    Minimizes || phi(X) S - D || over S in S1 = {q^T W}.  Only the
    F-component of D enters, since phi(X) S lies in F.  With U = phi(X) q^T,
    K = U^T U and R = U^T D, the normal equations are the p x p Lyapunov
    equation K W + W K = R + R^T (W symmetric, q symmetric or None) or
    R - R^T (W skew, q skew), solved in the eigenbasis of K at
    O(n p^2 + p^3).  A singular K raises ThetaDegenerateError carrying the
    minimum-norm least-squares solution.
    """
    phiX = point.phiX if isinstance(point, FeasiblePoint) else spec.phi(np.asarray(point, float))
    q = spec.q
    U = phiX if q is None else phiX @ q.T
    K = U.T @ U
    R = U.T @ spec.project_subspace(D)
    # q^T = +q or -q, and <q, q^T> carries that sign
    rhs = R + R.T if q is None or np.vdot(q, q.T) > 0 else R - R.T
    try:
        W = lyapunov_solve(K, K, rhs)
    except NoUniqueSolutionError as exc:
        S = exc.solution if q is None else q.T @ exc.solution
        raise ThetaDegenerateError(f"singular normal equations: {exc}", solution=S) from exc
    return W if q is None else q.T @ W


def project_tangent(spec, point, D):
    """Orthogonal projection of D onto the tangent space at the point."""
    return np.asarray(D, float) - point.phiX @ theta_lstsq(spec, point, D)


def riemannian_gradient(spec, point, egrad):
    """Project the Euclidean gradient onto the tangent space."""
    return project_tangent(spec, point, egrad)


def riemannian_hessvec(spec, point, Z, egrad, ehessvec):
    """Riemannian Hessian action on a tangent vector Z."""
    theta = theta_lstsq(spec, point, egrad)
    return project_tangent(spec, point, np.asarray(ehessvec, float) - spec.phi(Z) @ theta)


def retract(spec, point, Z):
    """Step from a feasible point along Z, returning a feasible point."""
    return spec.retract(point, Z)


def vector_transport(spec, point_new, Z):
    """Carry Z into the tangent space at point_new (orthogonal projection)."""
    return project_tangent(spec, point_new, Z)


def random_feasible(spec, seed=0):
    return spec.random_feasible(seed)


def random_tangent(spec, point, seed=0):
    rng = np.random.default_rng(seed)
    return project_tangent(spec, point, spec.random_ambient(rng))


def _cayley_apply(W, X):
    n = W.shape[0]
    A = np.eye(n) - 0.5 * W
    try:
        out = np.linalg.solve(A, X + 0.5 * (W @ X))
    except np.linalg.LinAlgError as exc:
        raise RetractError("singular local system; halve the step") from exc
    if not np.all(np.isfinite(out)):
        raise RetractError("non-finite retraction output; halve the step")
    return out


def _inv_sqrt_correction(Y, K):
    # Y K^{-1/2} for symmetric K; rejects steps where K loses definiteness
    w, V = np.linalg.eigh(sym(K))
    if w.min() <= 1e-14 * max(w.max(), 1.0):
        raise RetractError("local Gram matrix lost definiteness; halve the step")
    return (Y @ V) * (1.0 / np.sqrt(w)) @ V.T


def _finish_retraction(spec, Xn):
    try:
        return FeasiblePoint(spec, Xn, tol=1e-9)
    except FeasibilityError as exc:
        raise RetractError(str(exc)) from exc


# -------------------------------------------------------------------------
# concrete manifolds
# -------------------------------------------------------------------------

class Stiefel(ManifoldSpec):
    """Orthonormal frames: X^T X = I."""

    name = "stiefel"

    def phi(self, X):
        return np.asarray(X, dtype=float)

    def retract(self, point, Z):
        if not np.any(Z):
            return point
        Q, _ = qr_posdiag(point.X + Z)
        return _finish_retraction(self, Q)

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        Q, _ = qr_posdiag(rng.standard_normal((self.n, self.p)))
        return FeasiblePoint(self, Q, tol=1e-10)

    def record(self):
        return {"name": self.name, "n": self.n, "p": self.p}


class GeneralizedStiefel(ManifoldSpec):
    """B-orthonormal frames: X^T B X = I with B symmetric positive definite."""

    name = "generalized-stiefel"

    def __init__(self, n, p, B=None, seed=0):
        super().__init__(n, p)
        self.seed = None if B is not None else int(seed)
        if B is None:
            rng = np.random.default_rng(seed)
            Q, _ = qr_posdiag(rng.standard_normal((n, n)))
            B = (Q * rng.uniform(0.5, 2.0, size=n)) @ Q.T
        self.B = sym(np.asarray(B, dtype=float))
        w = np.linalg.eigvalsh(self.B)
        if w.min() <= 0:
            raise ValueError("B must be positive definite")

    def phi(self, X):
        return self.B @ X

    def retract(self, point, Z):
        if not np.any(Z):
            return point
        Y = point.X + Z
        return _finish_retraction(self, _inv_sqrt_correction(Y, Y.T @ (self.B @ Y)))

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((self.n, self.p))
        L = np.linalg.cholesky(G.T @ self.B @ G)
        return FeasiblePoint(self, np.linalg.solve(L, G.T).T, tol=1e-10)

    def record(self):
        if self.seed is None:
            raise ValueError("cannot serialize a generalized-stiefel spec with custom B")
        return {"name": self.name, "n": self.n, "p": self.p, "seed": self.seed}


def symplectic_j(m):
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


def _j_left(Y):
    """J_{2m} @ Y as a signed swap of the row halves (exact)."""
    m = Y.shape[0] // 2
    out = np.empty_like(Y)
    out[:m] = Y[m:]
    np.negative(Y[:m], out=out[m:])
    return out


def _j_right(Y):
    """Y @ J_{2k} as a signed swap of the column halves (exact)."""
    k = Y.shape[1] // 2
    out = np.empty_like(Y)
    np.negative(Y[:, k:], out=out[:, :k])
    out[:, k:] = Y[:, :k]
    return out


class SymplecticStiefel(ManifoldSpec):
    """Symplectic frames: X^T J_{2n} X = J_{2p}; dimensions are the full even sizes."""

    name = "symplectic-stiefel"

    def __init__(self, n2, p2):
        if n2 % 2 or p2 % 2:
            raise ValueError(f"symplectic dimensions must be even, got ({n2}, {p2})")
        super().__init__(n2, p2)
        self.Jn = symplectic_j(n2 // 2)
        self.Jp = symplectic_j(p2 // 2)
        self.q = self.Jp

    def phi(self, X):
        # -J_{2n} X J_{2p} as four signed block copies; equal bit for bit to
        # the dense product, since each entry of that product has one term
        X = np.asarray(X, dtype=float)
        m, k = self.n // 2, self.p // 2
        out = np.empty_like(X)
        out[:m, :k] = X[m:, k:]
        np.negative(X[m:, :k], out=out[:m, k:])
        np.negative(X[:m, k:], out=out[m:, :k])
        out[m:, k:] = X[:m, :k]
        return out

    def retract(self, point, Z):
        if not np.any(Z):
            return point
        X = point.X
        u = _j_left(X)                       # u^T X = -J_{2p} at feasible X
        Y = _j_right(X)                      # so Y^T u = I
        Mt = sym(Z.T @ u)
        S = Z @ Y.T + Y @ Z.T - Y @ Mt @ Y.T
        return _finish_retraction(self, _cayley_apply(_j_right(S), X))

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        n, p = self.n // 2, self.p // 2
        X0 = np.zeros((self.n, self.p))
        X0[:n, :p] = np.eye(n)[:, :p]
        X0[n:, p:] = np.eye(n)[:, :p]
        S = sym(rng.standard_normal((self.n, self.n)))
        W = _j_right(S)
        W *= 1.0 / max(1.0, np.linalg.norm(W))
        return FeasiblePoint(self, _cayley_apply(W, X0), tol=1e-10)

    def record(self):
        return {"name": self.name, "n": self.n, "p": self.p}


class IndefiniteStiefel(ManifoldSpec):
    """Frames with X^T A X = J for symmetric nonsingular A and a signature J."""

    name = "indefinite-stiefel"

    def __init__(self, n, p, k, p_k, A=None):
        super().__init__(n, p)
        m, p_m = n - k, p - p_k
        if not (0 <= p_k <= k and 0 <= p_m <= m):
            raise ValueError(f"infeasible block sizes k={k}, p_k={p_k} for (n, p)=({n}, {p})")
        self.k, self.p_k = int(k), int(p_k)
        self._default_A = A is None
        if A is None:
            A = np.diag(np.concatenate([np.arange(1.0, k + 1.0), -np.arange(float(m), 0.0, -1.0)]))
        self.A = sym(np.asarray(A, dtype=float))
        self.J = np.diag(np.concatenate([np.ones(p_k), -np.ones(p_m)]))
        self.q = self.J
        w, V = np.linalg.eigh(self.A)
        if np.abs(w).min() < 1e-12 * np.abs(w).max():
            raise ValueError("A must be nonsingular")
        order = np.argsort(-w)               # positive eigenvalues first
        self._eigw, self._eigv = w[order], V[:, order]
        if (self._eigw > 0).sum() < p_k or (self._eigw < 0).sum() < p - p_k:
            raise ValueError("signature of A cannot carry the requested (p_k, p_m)")

    def phi(self, X):
        return self.A @ X @ self.J

    def retract(self, point, Z):
        if not np.any(Z):
            return point
        X = point.X
        u = self.A @ X                       # u^T X = J at feasible X
        Y = X @ self.J                       # so Y^T u = I
        Mt = skew(Z.T @ u)
        S = Z @ Y.T - Y @ Z.T + Y @ Mt @ Y.T
        return _finish_retraction(self, _cayley_apply(S @ self.A, X))

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        npos = int((self._eigw > 0).sum())
        p_m = self.p - self.p_k
        Yt = np.zeros((self.n, self.p))
        if self.p_k:
            Yt[:npos, :self.p_k] = qr_posdiag(rng.standard_normal((npos, self.p_k)))[0]
        if p_m:
            Yt[npos:, self.p_k:] = qr_posdiag(rng.standard_normal((self.n - npos, p_m)))[0]
        X = (self._eigv / np.sqrt(np.abs(self._eigw))) @ Yt
        W = skew(rng.standard_normal((self.n, self.n))) @ self.A
        W *= 1.0 / max(1.0, np.linalg.norm(W))
        return FeasiblePoint(self, _cayley_apply(W, X), tol=1e-10)

    def record(self):
        if not self._default_A:
            raise ValueError("cannot serialize an indefinite-stiefel spec with custom A")
        return {"name": self.name, "n": self.n, "p": self.p, "k": self.k, "p_k": self.p_k}


class Hyperbolic(ManifoldSpec):
    """H-orthonormal frames: X^T H X = I with H symmetric, eigenvalues +/-1."""

    name = "hyperbolic"

    def __init__(self, n, p, neg=None, H=None, seed=0):
        super().__init__(n, p)
        self.seed = None if H is not None else int(seed)
        if H is None:
            neg = n // 3 if neg is None else int(neg)
            rng = np.random.default_rng(seed)
            Q, _ = qr_posdiag(rng.standard_normal((n, n)))
            d = np.concatenate([np.ones(n - neg), -np.ones(neg)])
            H = (Q * d) @ Q.T
            self._eigv, self._eigd = Q, d
        else:
            H = sym(np.asarray(H, dtype=float))
            w, V = np.linalg.eigh(H)
            if np.abs(np.abs(w) - 1.0).max() > 1e-10:
                raise ValueError("H must have eigenvalues +/- 1")
            order = np.argsort(-w)
            self._eigv, self._eigd = V[:, order], np.sign(w[order])
            neg = int((w < 0).sum())
        self.neg = neg
        if p > n - neg:
            raise ValueError(f"need p <= {n - neg} positive directions, got p={p}")
        self.H = sym(np.asarray(H, dtype=float))

    def phi(self, X):
        return self.H @ X

    def retract(self, point, Z):
        if not np.any(Z):
            return point
        Y = point.X + Z
        return _finish_retraction(self, _inv_sqrt_correction(Y, Y.T @ (self.H @ Y)))

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        npos = self.n - self.neg
        Yt = np.zeros((self.n, self.p))
        Yt[:npos, :] = qr_posdiag(rng.standard_normal((npos, self.p)))[0]
        X = self._eigv @ Yt
        W = skew(rng.standard_normal((self.n, self.n))) @ self.H
        W *= 1.0 / max(1.0, np.linalg.norm(W))
        return FeasiblePoint(self, _cayley_apply(W, X), tol=1e-10)

    def record(self):
        if self.seed is None:
            raise ValueError("cannot serialize a hyperbolic spec with custom H")
        return {"name": self.name, "n": self.n, "p": self.p, "neg": self.neg, "seed": self.seed}


class TensorStiefel(ManifoldSpec):
    """Third-order tensor frames under an l-product, stored block-unfolded.

    Points are the block-diagonal matrices Diag(tensor x3 M) of size ln x lp,
    so phi is the identity and the structural subspace F is the set of
    block-diagonal matrices with l diagonal blocks of size n x p.
    """

    name = "tensor-stiefel"

    def __init__(self, n, p, l, transform=None):
        self.tn, self.tp, self.l = int(n), int(p), int(l)
        if self.tn < self.tp:
            raise ValueError(f"need n >= p, got ({n}, {p})")
        if self.l < 1:
            raise ValueError("need l >= 1")
        super().__init__(self.l * self.tn, self.l * self.tp)
        self.transform = dct_transform(self.l) if transform is None else transform
        if not isinstance(self.transform, TransformMatrix):
            self.transform = TransformMatrix(self.transform)
        self._default_transform = transform is None

    # block helpers on unfolded matrices
    def _blocks(self, Y, rows, cols):
        for k in range(self.l):
            yield k, Y[k * rows:(k + 1) * rows, k * cols:(k + 1) * cols]

    def phi(self, X):
        return np.asarray(X, dtype=float)

    def project_subspace(self, Y):
        Y = np.asarray(Y, dtype=float)
        out = np.zeros_like(Y)
        rows = Y.shape[0] // self.l
        cols = Y.shape[1] // self.l
        for k in range(self.l):
            sl = np.s_[k * rows:(k + 1) * rows, k * cols:(k + 1) * cols]
            out[sl] = Y[sl]
        return out

    def subspace_residual(self, Y):
        return np.linalg.norm(np.asarray(Y, float) - self.project_subspace(Y))

    def random_ambient(self, rng):
        out = np.zeros((self.n, self.p))
        for k in range(self.l):
            out[k * self.tn:(k + 1) * self.tn, k * self.tp:(k + 1) * self.tp] = \
                rng.standard_normal((self.tn, self.tp))
        return out

    def random_gram(self, rng):
        out = np.zeros((self.p, self.p))
        for k in range(self.l):
            out[k * self.tp:(k + 1) * self.tp, k * self.tp:(k + 1) * self.tp] = \
                rng.standard_normal((self.tp, self.tp))
        return out

    def g_basis(self):
        basis = []
        for k in range(self.l):
            for i in range(self.tp):
                for j in range(self.tp):
                    E = np.zeros((self.p, self.p))
                    E[k * self.tp + i, k * self.tp + j] = 1.0
                    basis.append(E)
        return np.stack(basis)

    def embed_tensor(self, X3):
        """Unfold an n x p x l tensor into its transform-domain point."""
        return diag_unfold(mode3_product(X3, self.transform.M))

    def extract_tensor(self, Y):
        """Inverse of embed_tensor."""
        return mode3_product(diag_fold(Y, self.tn, self.tp, self.l), self.transform.Minv)

    def retract(self, point, Z):
        if not np.any(Z):
            return point
        Y = point.X + Z
        out = np.zeros_like(Y)
        for k, blk in self._blocks(Y, self.tn, self.tp):
            Q, _ = qr_posdiag(blk)
            out[k * self.tn:(k + 1) * self.tn, k * self.tp:(k + 1) * self.tp] = Q
        return _finish_retraction(self, out)

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        out = np.zeros((self.n, self.p))
        for k in range(self.l):
            Q, _ = qr_posdiag(rng.standard_normal((self.tn, self.tp)))
            out[k * self.tn:(k + 1) * self.tn, k * self.tp:(k + 1) * self.tp] = Q
        return FeasiblePoint(self, out, tol=1e-10)

    def record(self):
        if not self._default_transform:
            raise ValueError("cannot serialize a tensor-stiefel spec with a custom transform")
        return {"name": self.name, "n": self.tn, "p": self.tp, "l": self.l}


# -------------------------------------------------------------------------
# factories and plain-text records
# -------------------------------------------------------------------------

def stiefel(n, p):
    return Stiefel(n, p)


def generalized_stiefel(n, p, B=None, seed=0):
    return GeneralizedStiefel(n, p, B=B, seed=seed)


def symplectic_stiefel(n2, p2):
    return SymplecticStiefel(n2, p2)


def indefinite_stiefel(n, p, k, p_k, A=None):
    return IndefiniteStiefel(n, p, k, p_k, A=A)


def hyperbolic(n, p, neg=None, H=None, seed=0):
    return Hyperbolic(n, p, neg=neg, H=H, seed=seed)


def tensor_stiefel(n, p, l, transform=None):
    return TensorStiefel(n, p, l, transform=transform)


def spec_from_record(rec):
    """Rebuild a manifold from a plain key/value record (strings accepted)."""
    rec = {k: v for k, v in rec.items()}
    name = rec.pop("name")
    ints = {k: int(v) for k, v in rec.items()}
    makers = {
        "stiefel": lambda: Stiefel(ints["n"], ints["p"]),
        "generalized-stiefel": lambda: GeneralizedStiefel(
            ints["n"], ints["p"], seed=ints.get("seed", 0)),
        "symplectic-stiefel": lambda: SymplecticStiefel(ints["n"], ints["p"]),
        "indefinite-stiefel": lambda: IndefiniteStiefel(
            ints["n"], ints["p"], ints["k"], ints["p_k"]),
        "hyperbolic": lambda: Hyperbolic(
            ints["n"], ints["p"], neg=ints.get("neg"), seed=ints.get("seed", 0)),
        "tensor-stiefel": lambda: TensorStiefel(ints["n"], ints["p"], ints["l"]),
    }
    if name not in makers:
        raise ValueError(f"unknown manifold name {name!r}")
    return makers[name]()
