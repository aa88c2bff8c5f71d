"""Manifolds of the form  M = { X : X^T phi(X) = I }  and their geometry.

Each manifold is described by a linear, one-to-one, self-adjoint map phi on
n x p matrices, together with a companion map psi on the span G of cross-Gram
matrices satisfying  phi(X T) = phi(X) psi(T).  In all six concrete families
psi(T) = q^T T q for one p x p signed permutation q that is symmetric or
skew (q None: the identity), applied by moving entries rather than by
products; everything downstream (projections, gradients, the dissolving
penalty) is written against this interface.  The one retraction,
``ManifoldSpec.retract``, is repeated dissolving from X + Z and reads phi
alone, so all six families share it.
Generalized Stiefel and hyperbolic frames are indefinite frames with J = I.

A point X is an array of shape ``spec.batch + (n, p)``: one matrix for the
five matrix families, and a stack of l faces for tensor frames.  Products
broadcast over the batch axis and every transpose is ``.mT``, so one code path
serves both.  Both routes hold a point as one class, ``EvalCache``, and
``FeasiblePoint`` is its checked constructor.  The residual C is formed
only by ``EvalCache.base`` and its norm only by ``EvalCache.feas``; dC is
the one kernel ``_dC`` at a base.  The normal-space solve has one path:
the eigendecomposition of K = U^T U, ``lyapunov_factor(K)``, kept by the
point.  A public function checks the shape of every direction it takes
(``_shaped``), so none broadcasts against X.
"""

import math
from functools import lru_cache

import numpy as np

from .linalg import NoUniqueSolutionError, lyapunov_apply, lyapunov_factor, sym
from .linalg import lyapunov_solve  # noqa: F401  (a module attribute bench/tracing.py wraps)
from .tensor import dct_matrix, mode3_product, qr_posdiag


class FeasibilityError(ValueError):
    """Point violates X^T phi(X) = I beyond the requested tolerance."""


class RetractError(RuntimeError):
    """Retraction step too large: dissolving from X + Z does not reach the manifold."""


class ThetaDegenerateError(np.linalg.LinAlgError):
    """Normal equations of the projection are singular; carries the minimum-norm solution."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


POSTPROCESS_MAX_ROUNDS = 50   # dissolving rounds postprocess takes before it gives up
FEAS_TARGET = 1e-12           # residual the retraction and postprocess drive ||C|| under


class PostprocessDivergence(RuntimeError):
    """Repeated dissolving failed to reach the feasibility target."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@lru_cache(maxsize=16)
def _eye(p):
    # one read-only p x p identity per size, shared by every base point
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=16)
def _eye15(p):
    # 1.5 I, read-only, the constant part of every base point's lead
    eye = 1.5 * np.eye(p)
    eye.flags.writeable = False
    return eye


METER_KEYS = ("matmul", "phi", "grad_f", "f")


class EvalCache:
    """One point X of one spec, on the manifold or off it, and the one point
    class of both routes: X, phi(X), the Gram matrix G = X^T phi(X), the
    residual C = G - I, lead = 1.5 I - 0.5 G, A(X) = X lead^T, grad f(A(X))
    and ``syms``, the pair (gen_sym(grad f(A(X))^T X), gen_sym(C)) that the
    penalty gradient forms and its Hessian-vector product reads, and
    ``hv_ops``, the stacked operands that product builds at its first call
    at the base (see ``penalty.penalty_hessvec``), these three for the one
    penalty ``penalty``, (problem, beta).  ``feas`` reads ||C||, ``normal``
    is the factorization ``normal_factor`` keeps, and ``origin_C``, on a
    cache made by ``dissolving``, is the residual of the raw point.  ``store``
    belongs to X itself (see ``Problem``); the penalty evaluates f at A(X)
    through the store of ``dissolved()``, the point A(X), made once.

    A cache takes X without a copy, makes it read-only and never moves; the
    rest is formed the first time it is asked for, so a point read only for
    its residual or its geometry never pays for A(X).  ``FeasiblePoint`` is
    the checked constructor.  A cache made by ``dissolving`` starts with
    its base carried from the point Y it dissolves: phi(X), G and C.  The
    base broadcasts over leading axes: a cache around a stack of points has
    one p x p face of G and C per point.  Caches built with the same
    ``counts`` dict share one meter of the work done through them
    (``METER_KEYS``): dense products of n x p / p x p shape, phi
    applications and objective/gradient calls; the p x p products that
    carry G are not metered.
    """

    __slots__ = ("spec", "X", "counts", "phiX", "gram", "C", "_lead", "_AX", "store",
                 "penalty", "gradfA", "syms", "hv_ops", "origin_C", "normal", "_dissolved")

    def __init__(self, spec, X, counts=None):
        X.flags.writeable = False
        self.spec = spec
        self.X = X
        self.counts = counts if counts is not None else dict.fromkeys(METER_KEYS, 0)
        self.phiX = self.gram = self.C = self._lead = self._AX = None
        self.store = {}
        self.penalty = self.gradfA = self.syms = self.hv_ops = None
        self.origin_C = self.normal = self._dissolved = None

    @classmethod
    def dissolving(cls, spec, Y, counts=None):
        """The point A(Y), one dissolving step from Y, with its base and no
        cache at Y; 1 phi and 3 products.

        phi(Y), G(Y) and L = 1.5 I - 0.5 G(Y) give A(Y) = Y L^T with the bits
        of a cache at Y.  With phi(Y T) = phi(Y) psi(T), the point A(Y)
        carries phi(A(Y)) = phi(Y) psi(L^T), and G(A(Y)) = L G(Y) psi(L^T)
        and its C at p x p cost; its ``origin_C`` is C(Y).  G(Y) is fresh,
        so no rounding carries over from the point Y was stepped from.
        """
        eye = _eye(spec.p)
        phiY = spec.phi(Y)
        gram = Y.mT @ phiY
        lead = _eye15(spec.p) - 0.5 * gram
        out = cls(spec, Y @ lead.mT, counts)
        psi_lt = spec.psi(lead.mT)
        out.phiX = phiY @ psi_lt
        out.counts["phi"] += 1
        out.counts["matmul"] += 3
        out.gram = lead @ gram @ psi_lt
        out.C = out.gram - eye
        out.origin_C = gram - eye
        return out

    def _mm(self, A, B):
        self.counts["matmul"] += 1
        return A @ B

    def _phi(self, Y):
        self.counts["phi"] += 1
        return self.spec.phi(Y)

    def base(self):
        """The cache with phi(X), G and C; 1 phi and 1 product the first time."""
        if self.phiX is None:
            X = self.X
            self.phiX = self._phi(X)
            self.gram = self._mm(X.mT, self.phiX)
            self.C = self.gram - _eye(self.spec.p)
        return self

    @property
    def lead(self):
        """1.5 I - 0.5 G, formed at the first read; no product."""
        if self._lead is None:
            self._lead = _eye15(self.spec.p) - 0.5 * self.base().gram
        return self._lead

    @property
    def AX(self):
        """A(X) = X lead^T, formed at the first read; 1 product."""
        if self._AX is None:
            self._AX = self._mm(self.X, self.lead.mT)
        return self._AX

    @property
    def feas(self):
        """||C||, the norm of the constraint residual at X, as a Python float."""
        return _norm(self.base().C)

    def ensure_grad(self, pf):
        """The base with grad f(A(X)) and its pair ``syms`` for the penalty
        ``pf``; 1 product when new, or when formed for another penalty."""
        key = (pf.problem, pf.beta)
        if self.penalty != key:
            self.base()
            self.counts["grad_f"] += 1
            self.gradfA = pf.problem.grad(self.AX, self.dissolved().store)
            self.syms = (self.spec.gen_sym(self._mm(self.gradfA.mT, self.X)),
                         self.spec.gen_sym(self.C))
            self.hv_ops = None
            self.penalty = key

    def dissolved(self):
        """The cache at A(X), one dissolving step from X, on the same meter;
        made once.  It forms its own base when it is read."""
        if self._dissolved is None:
            self._dissolved = EvalCache(self.spec, self.AX, self.counts)
        return self._dissolved


def _norm(a):
    # np.linalg.norm's own sum for the Frobenius norm of a real array, as a
    # Python float, without its dispatch
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def _checked(point, tol):
    """``point`` once its residual is finite and at most ``tol``."""
    feas = point.feas
    if not (np.isfinite(feas) and feas <= tol):     # written so that NaN fails it
        raise FeasibilityError(
            f"constraint residual {feas:.3e} exceeds tolerance {tol:.1e} on {point.spec.name}")
    return point


def _shaped(spec, Z, rows=None):
    """Z as a float array of shape ``spec.batch + (rows, p)``, that of a
    point of ``spec`` when rows is None, or ValueError naming both shapes."""
    Z = np.asarray(Z, dtype=float)
    shape = spec.batch + (spec.n if rows is None else rows, spec.p)
    if Z.shape != shape:
        raise ValueError(f"{spec!r} takes an array of shape {shape} here, not {Z.shape}")
    return Z


def _copy_X(spec, X):
    """A float copy of X, or of the X of a point, of the shape
    ``spec.batch + (n, p)`` of a point of ``spec``, or ValueError."""
    return _shaped(spec, np.array(X.X if isinstance(X, EvalCache) else X, dtype=float))


def FeasiblePoint(spec, X, tol=1e-8):
    """A point of ``spec`` at a read-only float copy of X (an array or a
    point), checked to ``tol``: an ``EvalCache`` whose residual ||C|| is at
    most ``tol``, or FeasibilityError.  A NaN or negative ``tol`` is a
    ValueError."""
    if not tol >= 0:    # written so that NaN fails it
        raise ValueError(f"tol must be nonnegative, got {tol}")
    return _checked(EvalCache(spec, _copy_X(spec, X)), tol)


def _point(spec, point):
    """``point`` itself when it is a point of ``spec``; for an array, or a
    point of another spec, an unchecked point of ``spec`` at a float copy of
    its X, which the caller throws away: it is factored on every call."""
    if isinstance(point, EvalCache) and point.spec is spec:
        return point
    return EvalCache(spec, _copy_X(spec, point))


def _postprocess(cache, eps_f):
    """Drive the residual of ``cache`` under eps_f by repeated dissolving and
    return (last base, rounds), a base whose residual is under eps_f.  Each
    round is the previous base's ``dissolved`` cache, so the residual and
    the next A(X) share one phi(X) and one Gram matrix.  Each round must
    lower ||C||, so a fixed point of A off the manifold costs one round,
    not POSTPROCESS_MAX_ROUNDS."""
    if not 0 < eps_f < math.inf:
        raise ValueError(f"eps_f must be positive and finite, got {eps_f}")
    base, c = cache, cache.feas
    trace = [c]
    rounds = 0
    while not c < eps_f:    # written so that NaN stays in the loop
        if rounds >= POSTPROCESS_MAX_ROUNDS:
            raise PostprocessDivergence(
                f"residual {c:.3e} after {rounds} rounds, target {eps_f:.1e}", trace)
        if not np.isfinite(c):
            raise PostprocessDivergence(
                f"residual diverged to {c:.3e} after {rounds} rounds", trace)
        if rounds and not c < trace[-2]:
            raise PostprocessDivergence(
                f"residual {c:.3e} not lowered by round {rounds} (was {trace[-2]:.3e})", trace)
        base = base.dissolved()
        c = base.feas
        rounds += 1
        trace.append(c)
    return base, rounds


class SignedPermutation:
    """A symmetric or skew p x p matrix q with one entry +/-1 in each row and
    column, applied by moving and negating entries.

    Column j of q holds ``sign[j]`` in row ``perm[j]``, and q^T = ``sym`` q.
    Each entry of T q^T, q^T T or q^T T q has one nonzero term, so on
    finite input each method equals the dense product bit for bit.  A
    diagonal q (J) is a sign mask or a column or row sign flip.  For a q
    that moves columns (J_2p), T q^T scatters signed columns, q^T T gathers
    rows and psi gathers entries.
    """

    def __init__(self, q):
        q = np.array(q, dtype=float)
        p = len(q)
        if q.shape != (p, p):
            raise ValueError("q must be a square matrix")
        perm = np.argmax(np.abs(q), axis=0)
        sign = q[perm, np.arange(p)]
        if (np.count_nonzero(q) != p or np.any(np.abs(sign) != 1.0)
                or sorted(perm.tolist()) != list(range(p))):
            raise ValueError("q must be a signed permutation matrix")
        self.sym = 1.0 if np.array_equal(q.T, q) else -1.0
        if not np.array_equal(q.T, self.sym * q):
            raise ValueError("q must be symmetric or skew")
        q.flags.writeable = False
        self.matrix, self.perm, self.sign = q, perm, sign
        self._diagonal = np.array_equal(perm, np.arange(p))
        self._mask = np.outer(sign, sign)
        self._flat = perm[:, None] * p + perm

    def right_t(self, T):
        """T q^T = sym T q: column perm[j] is sign[j] T[:, j]."""
        if self._diagonal:
            return T * self.sign
        out = np.empty(T.shape)
        out[..., self.perm] = T * self.sign
        return out

    def left_t(self, T):
        """q^T T."""
        if not self._diagonal:
            T = T.take(self.perm, axis=-2)
        return T * self.sign[:, None]

    def psi(self, T):
        """q^T T q."""
        if not self._diagonal:
            T = T.reshape(T.shape[:-2] + (-1,)).take(self._flat, axis=-1)
        return T * self._mask


def _size(key, value):
    """The integral number ``value`` as an int, never rounded, or ValueError naming ``key``."""
    if not float(value).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


class ManifoldSpec:
    """Base class bundling (phi, psi) and the dissolving retraction.

    ``qperm`` is the SignedPermutation q of psi(T) = q^T T q; None stands
    for the identity.  q is symmetric or skew, and S1 = {q^T W} with W of
    the same symmetry.  ``batch`` is the shape of the leading axes of a
    point: () for a matrix, (l,) for a stack of l faces.
    """

    name = "generic"
    qperm = None
    batch = ()

    def __init__(self, n, p):
        self.n = _size("n", n)
        self.p = _size("p", p)
        if self.n <= 0 or self.p <= 0 or self.p > self.n:
            raise ValueError(f"bad ambient dimensions ({n}, {p})")
        self._s1 = None

    @property
    def q(self):
        """q as a read-only dense p x p matrix, or None for the identity."""
        return None if self.qperm is None else self.qperm.matrix

    # --- maps defining the manifold -------------------------------------
    def phi(self, X):
        raise NotImplementedError

    def psi(self, T):
        T = np.asarray(T, dtype=float)
        return T if self.qperm is None else self.qperm.psi(T)

    def gen_sym(self, T):
        """Generalized symmetrization T^T + psi(T)."""
        return T.mT + self.psi(T)

    def random_ambient(self, rng):
        return rng.standard_normal(self.batch + (self.n, self.p))

    def random_gram(self, rng):
        """Random element of G = span{X1^T X2}."""
        return rng.standard_normal(self.batch + (self.p, self.p))

    # --- the range S1 of gen_sym on the span of cross-Grams G ------------
    def s1_basis(self):
        """Orthonormal basis of S1, the gen_sym image of G: by SVD, the row
        space of the images of G's unit entries, to 1e-10 relative."""
        if self._s1 is None:
            shape = self.batch + (self.p, self.p)
            k = math.prod(shape)
            images = self.gen_sym(np.eye(k).reshape((k,) + shape))
            _, s, Vt = np.linalg.svd(images.reshape(k, -1), full_matrices=False)
            self._s1 = Vt[s > 1e-10 * s[0]].reshape((-1,) + shape)
        return self._s1

    # --- retraction, written once against phi -----------------------------
    def retract(self, point, Z):
        """Step from a feasible point along a tangent Z to a feasible point.

        The dissolving retraction lim A^k(X + Z): one dissolving step from
        X + Z, then ``postprocess``'s own rounds until ||C|| < FEAS_TARGET.
        A fixes the manifold and its differential there is the identity on
        the tangent space, so this is a retraction for every family.  Each
        point on the way costs one phi and two products.  The first step is
        taken even when X + Z already meets 1e-12: handing back X + Z there
        left rcg on extrinsic_desk at tol 1e-9 at MaxIter after 100,000
        iterations, against 273 with the step.  Steps that do not reach the
        target (a non-finite residual, or none under 1e-12 within
        ``postprocess``'s budget) raise RetractError, and a Z of another
        shape than X ValueError.
        """
        Z = _shaped(self, Z)
        if not np.any(Z):
            return point
        try:
            with np.errstate(over="ignore", invalid="ignore"):   # non-finite steps fail below
                return _postprocess(EvalCache(self, point.X + Z).dissolved(), FEAS_TARGET)[0]
        except PostprocessDivergence as exc:
            raise RetractError(str(exc)) from exc

    # --- manifold-specific pieces ----------------------------------------

    def random_feasible(self, seed=0):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, p={self.p})"


# -------------------------------------------------------------------------
# free functions over a spec (the geometric toolbox)
# -------------------------------------------------------------------------

def constraint(spec, X):
    """Residual X^T phi(X) - I at an array or a point: the C of a base
    point at a copy of its X."""
    return EvalCache(spec, _copy_X(spec, X)).base().C


def _dC(point, Z):
    """dC(X)[Z] = X^T phi(Z) + Z^T phi(X) at a point that has its base; unmetered."""
    return point.X.mT @ point.spec.phi(Z) + Z.mT @ point.phiX


def tangent_test(spec, point, Z, tol=1e-8):
    """Check X^T phi(Z) + Z^T phi(X) = 0; returns (ok, residual)."""
    resid = np.linalg.norm(_dC(_point(spec, point).base(), _shaped(spec, Z)))
    return bool(resid <= tol), resid


def normal_factor(spec, point):
    """(U, LyapunovFactor of K = U^T U) with U = phi(X) q^T: the part of the
    normal equations that the point alone determines.  A point of ``spec``
    builds it once and keeps it as ``point.normal``."""
    point = _point(spec, point)
    if point.normal is None:
        phiX = point.base().phiX
        U = phiX if spec.qperm is None else spec.qperm.right_t(phiX)
        K = U.mT @ U
        point.normal = U, lyapunov_factor(K)
    return point.normal


def theta_lstsq(spec, point, D):
    """Coefficient matrix of the normal component of D.

    Minimizes || phi(X) S - D || over S in S1 = {q^T W}.  With
    U = phi(X) q^T, K = U^T U and R = U^T D, the normal equations are the
    p x p Lyapunov equation K W + W K = R + R^T (W symmetric, q symmetric or
    None) or R - R^T (W skew, q skew), solved in the eigenbasis of K.  A
    point of ``spec`` keeps U and the eigendecomposition of K as its
    ``normal``, so each solve at it costs O(n p^2 + p^3) with no new
    decomposition.  Here and in every geometry function below, a raw array,
    or a point of another spec, is an unchecked point of ``spec`` at a copy
    of its X, factored on every call.  A
    singular K raises ThetaDegenerateError carrying the minimum-norm
    least-squares solution.
    """
    q = spec.qperm
    U, factor = normal_factor(spec, point)
    R = U.mT @ _shaped(spec, D)
    rhs = R + (1.0 if q is None else q.sym) * R.mT
    try:
        W = lyapunov_apply(factor, rhs)
    except NoUniqueSolutionError as exc:
        S = exc.solution if q is None else q.left_t(exc.solution)
        raise ThetaDegenerateError(f"singular normal equations: {exc}", solution=S) from exc
    return W if q is None else q.left_t(W)


def project_tangent(spec, point, D):
    """Orthogonal projection of D onto the tangent space at the point."""
    point = _point(spec, point).base()
    return _shaped(spec, D) - point.phiX @ theta_lstsq(spec, point, D)


# the Riemannian gradient and the vector transport are both the projection
riemannian_gradient = project_tangent
vector_transport = project_tangent


def riemannian_hessvec(spec, point, Z, egrad, ehessvec):
    """Riemannian Hessian action on a tangent vector Z."""
    point, Z = _point(spec, point), _shaped(spec, Z)
    theta = theta_lstsq(spec, point, egrad)
    return project_tangent(spec, point, _shaped(spec, ehessvec) - spec.phi(Z) @ theta)


def retract(spec, point, Z):
    """Step from a feasible point (or an array) along Z, returning a feasible point."""
    return spec.retract(_point(spec, point), Z)


def random_tangent(spec, point, seed=0):
    rng = np.random.default_rng(seed)
    return project_tangent(spec, point, spec.random_ambient(rng))


def _cayley_apply(W, X):
    """(I - W/2)^{-1} (I + W/2) X by one n x n LU, for random_feasible, whose
    ||W||_F <= 1 keeps I - W/2 invertible.  Takes W over: W becomes
    I - W/2 in place, so W and the work copy np.linalg.solve makes are the
    only n x n arrays.  The same bits as solve(eye(n) - 0.5 W, X + 0.5 W X)."""
    rhs = X + 0.5 * (W @ X)
    W *= -0.5
    W.flat[::W.shape[0] + 1] += 1.0
    return np.linalg.solve(W, rhs)


# -------------------------------------------------------------------------
# concrete manifolds
# -------------------------------------------------------------------------

class Stiefel(ManifoldSpec):
    """Orthonormal frames: X^T X = I."""

    name = "stiefel"

    def phi(self, X):
        return np.asarray(X, dtype=float)

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        Q, _ = qr_posdiag(rng.standard_normal(self.batch + (self.n, self.p)))
        return FeasiblePoint(self, Q, tol=1e-10)


def symplectic_j(m):
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


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

    def __init__(self, n, p):
        super().__init__(n, p)
        if self.n % 2 or self.p % 2:
            raise ValueError(f"symplectic dimensions must be even, got ({n}, {p})")
        self.qperm = SignedPermutation(symplectic_j(self.p // 2))

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

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        n, p = self.n // 2, self.p // 2
        X0 = np.zeros((self.n, self.p))
        X0[:n, :p] = np.eye(n, p)
        X0[n:, p:] = np.eye(n, p)
        # W = sym(G) J, rebound step by step so that at most two n x n
        # arrays are live
        W = rng.standard_normal((self.n, self.n))
        W = W + W.T
        W *= 0.5
        W = _j_right(W)
        W *= 1.0 / max(1.0, np.linalg.norm(W))
        return FeasiblePoint(self, _cayley_apply(W, X0), tol=1e-10)


class IndefiniteStiefel(ManifoldSpec):
    """Frames with X^T A X = J for symmetric nonsingular A and a signature J.

    phi(X) = A X J, J = diag(I_{p_k}, -I_{p - p_k}).  With p_k = p, J = I and
    q is None; ``generalized_stiefel`` (A positive definite) and
    ``hyperbolic`` (eig A = +/-1) build such frames.  A
    diagonal A (the default) is held as its diagonal ``a``, and phi is the
    elementwise scaling X * w with the n x p weight w = a diag(J)^T, at
    O(n p) and equal bit for bit to the dense product, since each entry of
    A X J has one nonzero term.  A custom non-diagonal A is kept dense and
    phi is (A X) * diag(J)^T.  ``spec.A`` builds the dense matrix on demand.
    A custom A must be symmetric to within 1e-12 ||A||; it is not replaced
    by its symmetric part.
    k is the number of positive eigenvalues of A: it sizes the blocks of
    the default A, and a custom A with another count is rejected.
    """

    name = "indefinite-stiefel"

    def __init__(self, n, p, k, p_k, A=None):
        super().__init__(n, p)
        k, p_k = _size("k", k), _size("p_k", p_k)
        m, p_m = self.n - k, self.p - p_k
        if not (0 <= p_k <= k and 0 <= p_m <= m):
            raise ValueError(f"infeasible block sizes k={k}, p_k={p_k} for (n, p)=({n}, {p})")
        self.k, self.p_k = k, p_k
        self._j = np.concatenate([np.ones(p_k), -np.ones(p_m)])
        self.J = np.diag(self._j)
        self.qperm = SignedPermutation(self.J) if p_m else None
        if A is not None:
            A = sym(_n_by_n(A, self.n, "A"))
        if A is None or np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
            # the eigenpairs of a diagonal A are its entries and the unit
            # vectors, so its sorted eigenvector matrix is the permutation _order
            if A is None:
                self.a = np.concatenate([np.arange(1.0, k + 1.0), -np.arange(float(m), 0.0, -1.0)])
            else:
                self.a = np.diagonal(A).copy()
            self._A, self._w, w = None, self.a[:, None] * self._j, self.a
        else:
            self.a, self._A = None, A
            w, V = np.linalg.eigh(A)
        if not np.abs(w).min() >= 1e-12 * np.abs(w).max() > 0:    # zero and NaN fail it
            raise ValueError("A must be nonsingular")
        if A is not None and (w > 0).sum() != k:
            raise ValueError(f"A has {(w > 0).sum()} positive eigenvalues, not k={k}")
        self._order = np.argsort(-w)         # positive eigenvalues first
        self._eigw = w[self._order]
        self._eigv = None if self._A is None else V[:, self._order]

    @property
    def A(self):
        """A as a dense n x n matrix (built on demand when A is diagonal)."""
        return np.diag(self.a) if self._A is None else self._A

    def phi(self, X):
        if self._A is None:
            return X * self._w
        return (self._A @ X) * self._j

    def random_feasible(self, seed=0):
        rng = np.random.default_rng(seed)
        npos = int((self._eigw > 0).sum())
        p_m = self.p - self.p_k
        Yt = np.zeros((self.n, self.p))
        if self.p_k:
            Yt[:npos, :self.p_k] = qr_posdiag(rng.standard_normal((npos, self.p_k)))[0]
        if p_m:
            Yt[npos:, self.p_k:] = qr_posdiag(rng.standard_normal((self.n - npos, p_m)))[0]
        root = np.sqrt(np.abs(self._eigw))
        if self._A is None:
            # (V / root) Yt for a permutation V: a row scaling, equal bit for
            # bit to the dense product
            X = np.empty_like(Yt)
            X[self._order] = (1.0 / root)[:, None] * Yt
        else:
            X = (self._eigv / root) @ Yt
        # W = skew(G) A, rebound step by step so that at most two n x n
        # arrays are live; for a diagonal A the product is a column scaling,
        # equal bit for bit to the dense one
        W = rng.standard_normal((self.n, self.n))
        W = W - W.T
        W *= 0.5
        if self._A is None:
            W *= self.a
        else:
            W = W @ self._A
        W *= 1.0 / max(1.0, np.linalg.norm(W))
        return FeasiblePoint(self, _cayley_apply(W, X), tol=1e-10)


class TensorStiefel(Stiefel):
    """Third-order tensor frames under an l-product, stored as transform-domain faces.

    ``transform`` is the orthogonal DCT matrix C: ``embed_tensor`` carries
    an n x p x l tensor by C to (l, n, p) faces, ``extract_tensor`` back by
    C^T.  On faces the l-product is ``@``, the l-transpose ``.mT``, the
    identity a stack of ``np.eye`` and the tensor QR ``qr_posdiag``, so a
    frame is l orthonormal faces and the rest is Stiefel geometry over the
    batch axis: phi is the identity and the retraction acts on every face.
    """

    name = "tensor-stiefel"

    def __init__(self, n, p, l):
        l = _size("l", l)
        if l < 1:
            raise ValueError("need l >= 1")
        super().__init__(n, p)
        self.l = l
        self.batch = (self.l,)
        self.transform = dct_matrix(self.l)

    def embed_tensor(self, X3):
        """Carry an n x p x l tensor to its (l, n, p) stack of transform-domain faces."""
        return np.moveaxis(mode3_product(X3, self.transform), 2, 0)

    def extract_tensor(self, Y):
        """Inverse of embed_tensor."""
        return mode3_product(np.moveaxis(np.asarray(Y, dtype=float), 0, 2), self.transform.T)


# -------------------------------------------------------------------------
# factories (a factory that would only forward its arguments is the class)
# -------------------------------------------------------------------------

def _n_by_n(M, n, name):
    """M as a float n x n array, symmetric to 1e-12 ||M|| as ``lyapunov_factor``
    asks, or ValueError naming it; the sym(M) the callers take then removes
    only rounding.  A NaN entry passes here and fails as a singular M."""
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"{name} must have shape ({n}, {n}), not {M.shape}")
    if np.linalg.norm(M - M.T) > 1e-12 * np.linalg.norm(M):
        raise ValueError(f"{name} must be symmetric")
    return M


stiefel = Stiefel
symplectic_stiefel = SymplecticStiefel
indefinite_stiefel = IndefiniteStiefel
tensor_stiefel = TensorStiefel


def generalized_stiefel(n, p, B=None, seed=0):
    """X^T B X = I for B positive definite: indefinite frames with A = B, J = I."""
    n = _size("n", n)
    if B is None:
        rng = np.random.default_rng(seed)
        Q, _ = qr_posdiag(rng.standard_normal((n, n)))
        B = (Q * rng.uniform(0.5, 2.0, size=n)) @ Q.T
    # k = n: a B that is not positive definite fails the count of positive eigenvalues
    spec = IndefiniteStiefel(n, p, n, p, A=_n_by_n(B, n, "B"))
    spec.name = "generalized-stiefel"
    return spec


def hyperbolic(n, p, neg=None, H=None, seed=0):
    """X^T H X = I for eig H = +/-1: indefinite frames with A = H, J = I.

    ``neg``, the number of eigenvalues -1 of the default H (n // 3 when
    None), is an integer in [0, n - p]; it only shapes the default H, so it
    cannot be passed with H."""
    n = _size("n", n)
    if H is not None and neg is not None:
        raise ValueError("neg sizes the default H and cannot be passed with H")
    if H is None:
        if neg is None:
            neg = n // 3
        else:
            neg, top = _size("neg", neg), n - _size("p", p)
            if not 0 <= neg <= top:
                raise ValueError(f"neg must be in [0, n - p] = [0, {top}], got {neg}")
        Q, _ = qr_posdiag(np.random.default_rng(seed).standard_normal((n, n)))
        H = (Q * np.concatenate([np.ones(n - neg), -np.ones(neg)])) @ Q.T
    # eig H = +/-1 has trace H = k - (n - k), which gives k without an eigh
    half = 0.5 * (n + np.trace(_n_by_n(H, n, "H")))
    k = int(round(half))
    if abs(half - k) > 1e-8 * n:
        raise ValueError("H must have eigenvalues +/- 1")
    spec = IndefiniteStiefel(n, p, k, p, A=H)
    if np.abs(np.abs(spec._eigw) - 1.0).max() > 1e-10:
        raise ValueError("H must have eigenvalues +/- 1")
    spec.name = "hyperbolic"
    return spec
