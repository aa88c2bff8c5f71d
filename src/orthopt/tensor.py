"""Third-order tensor algebra built on an invertible mode-3 transform.

Tensors are numpy arrays of shape (n, p, l); the k-th frontal slice is
X[:, :, k].  Products are defined through an invertible l x l transform M:
slices are mapped into the transform domain, multiplied face-wise, and
mapped back.
"""

import numpy as np


class SingularSliceError(np.linalg.LinAlgError):
    """A transform-domain slice is rank deficient."""


class TransformMatrix:
    """Invertible l x l mode-3 transform with its precomputed inverse."""

    def __init__(self, M, Minv=None):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"transform must be square, got shape {M.shape}")
        self.l = M.shape[0]
        self.M = M
        self.Minv = np.linalg.inv(M) if Minv is None else np.asarray(Minv, dtype=float)
        err = np.linalg.norm(self.M @ self.Minv - np.eye(self.l))
        if err > 1e-12 * self.l:
            raise ValueError(f"M @ Minv deviates from identity by {err:.2e}")

    def __repr__(self):
        return f"TransformMatrix(l={self.l})"


def dct_matrix(l):
    """Orthogonal type-II DCT matrix of size l (rows are cosine modes)."""
    k = np.arange(l)
    C = np.sqrt(2.0 / l) * np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * l))
    C[0, :] /= np.sqrt(2.0)
    return C


def dct_transform(l):
    C = dct_matrix(l)
    return TransformMatrix(C, C.T)


def _check_tensor(X):
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={X.ndim}")
    return X


def mode3_product(X, M):
    """Contract the tube fibers of X with the rows of M.

    result[i1, i2, j] = sum_k X[i1, i2, k] * M[j, k]
    """
    X = _check_tensor(X)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"mode-3 factor must be square, got {M.shape}")
    if M.shape[1] != X.shape[2]:
        raise ValueError(f"mode-3 size mismatch: tensor l={X.shape[2]}, M is {M.shape}")
    return np.tensordot(X, M, axes=([2], [1]))


def facewise_product(X, Y):
    """Slice-by-slice matrix product of two tensors sharing their third dim."""
    X = _check_tensor(X)
    Y = _check_tensor(Y)
    if X.shape[2] != Y.shape[2]:
        raise ValueError(f"third dims differ: {X.shape[2]} vs {Y.shape[2]}")
    if X.shape[1] != Y.shape[0]:
        raise ValueError(f"slice shapes do not chain: {X.shape[:2]} @ {Y.shape[:2]}")
    return np.einsum("ijk,jmk->imk", X, Y)


def lproduct(X, Y, transform):
    """Tensor-tensor product through the invertible transform.

    Both operands are carried into the transform domain, multiplied
    face-wise, and carried back.
    """
    Xh = mode3_product(X, transform.M)
    Yh = mode3_product(Y, transform.M)
    return mode3_product(facewise_product(Xh, Yh), transform.Minv)


def lproduct_identity(p, l, transform):
    """Tensor acting as the multiplicative identity for the l-product."""
    Ih = np.dstack([np.eye(p)] * l)
    return mode3_product(Ih, transform.Minv)


def lproduct_transpose(X, transform):
    """Transpose each transform-domain slice, then map back."""
    Xh = mode3_product(X, transform.M)
    return mode3_product(Xh.transpose(1, 0, 2), transform.Minv)


def qr_posdiag(A):
    """Reduced QR with the sign convention diag(R) > 0; A may be a stack."""
    Q, R = np.linalg.qr(A)
    d = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return Q * d[..., None, :], d[..., :, None] * R


def tqr(X, transform):
    """Slice-wise reduced QR in the transform domain, mapped back.

    Returns (Q, R) with lproduct(transpose(Q), Q) the identity tensor and R
    upper triangular with positive diagonal in every transform-domain slice.
    Raises SingularSliceError if any slice loses column rank.
    """
    X = _check_tensor(X)
    n, p, l = X.shape
    if p > n:
        raise ValueError(f"need n >= p for a reduced QR, got {(n, p)}")
    Xh = mode3_product(X, transform.M)
    Qh = np.empty((n, p, l))
    Rh = np.zeros((p, p, l))
    for k in range(l):
        Q, R = qr_posdiag(Xh[:, :, k])
        rd = np.abs(np.diag(R))
        if rd.min() <= p * np.finfo(float).eps * max(rd.max(), 1.0):
            raise SingularSliceError(f"transform-domain slice {k} is rank deficient")
        Qh[:, :, k] = Q
        Rh[:, :, k] = R
    return mode3_product(Qh, transform.Minv), mode3_product(Rh, transform.Minv)
