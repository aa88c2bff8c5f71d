import os
import tracemalloc

# Pin BLAS to one thread before NumPy loads, as bench/run.py does: the golden
# objective values depend on the summation order of threaded BLAS kernels.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np
import pytest


def _theta_basis_lstsq(spec, phiX, D):
    """Reference normal-space solve: min ||phi(X) S - D|| over the S1 basis.

    Expands S in the orthonormal basis ``spec.s1_basis()`` and solves the dense
    (size of X) x dim(S1) least-squares problem, over all faces of a stack at once; returns the minimum-norm solution
    and the numerical rank of the design.
    """
    basis = spec.s1_basis()
    k = basis.shape[0]
    design = np.einsum("...nj,k...jm->k...nm", phiX, basis).reshape(k, -1).T
    coef, _, rank, _ = np.linalg.lstsq(design, np.asarray(D, float).ravel(), rcond=None)
    return np.tensordot(coef, basis, axes=(0, 0)), rank


@pytest.fixture
def theta_oracle():
    return _theta_basis_lstsq


def _traced_peak(fn):
    """Bytes of the highest tracemalloc peak while ``fn()`` runs, above what
    was allocated when it started."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not outer:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
