import numpy as np
import pytest


def _theta_basis_lstsq(spec, phiX, D):
    """Reference normal-space solve: min ||phi(X) S - D|| over the S1 basis.

    Expands S in the orthonormal basis ``spec.s1_basis()`` and solves the dense
    (n p) x dim(S1) least-squares problem; returns the minimum-norm solution
    and the numerical rank of the design.
    """
    basis = spec.s1_basis()
    k = basis.shape[0]
    design = np.einsum("nj,kjm->knm", phiX, basis).reshape(k, -1).T
    coef, _, rank, _ = np.linalg.lstsq(design, np.asarray(D, float).ravel(), rcond=None)
    return np.tensordot(coef, basis, axes=(0, 0)), rank


@pytest.fixture
def theta_oracle():
    return _theta_basis_lstsq
