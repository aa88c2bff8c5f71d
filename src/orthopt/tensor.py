"""Mode-3 transforms of third-order tensors and the QR of a stack of faces.

Tensors are numpy arrays of shape (n, p, l); the k-th frontal slice is
X[:, :, k].  ``TensorStiefel`` carries them through the orthogonal DCT to
(l, n, p) stacks of transform-domain faces, where the l-product is the
face-wise matrix product.
"""

import numpy as np


def dct_matrix(l):
    """Orthogonal type-II DCT matrix of size l (rows are cosine modes)."""
    k = np.arange(l)
    C = np.sqrt(2.0 / l) * np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * l))
    C[0, :] /= np.sqrt(2.0)
    return C


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


def qr_posdiag(A):
    """Reduced QR with the sign convention diag(R) > 0; A may be a stack."""
    Q, R = np.linalg.qr(A)
    d = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return Q * d[..., None, :], d[..., :, None] * R
