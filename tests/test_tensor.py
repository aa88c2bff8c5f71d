import numpy as np
import pytest

import orthopt as op
from orthopt.tensor import dct_matrix, mode3_product


def test_dct_matrix_is_orthogonal():
    for l in (1, 2, 5, 8):
        C = dct_matrix(l)
        np.testing.assert_allclose(C @ C.T, np.eye(l), atol=1e-14)


def test_mode3_identity_for_l1():
    X = np.random.default_rng(0).standard_normal((3, 2, 1))
    np.testing.assert_array_equal(mode3_product(X, np.eye(1)), X)


def test_mode3_hand_value():
    # all-ones 1x1x2 tube against a sum/difference transform
    X = np.ones((1, 1, 2))
    M = np.array([[1.0, 1.0], [1.0, -1.0]])
    out = mode3_product(X, M)
    np.testing.assert_allclose(out[0, 0, :], [2.0, 0.0])


def test_mode3_inverse_round_trip():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 3, 5))
    M = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    Minv = np.linalg.inv(M)
    back = mode3_product(mode3_product(X, M), Minv)
    assert np.linalg.norm(back - X) <= 1e-12 * np.linalg.norm(X)


def test_mode3_is_linear():
    rng = np.random.default_rng(2)
    X, Y = rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 2, 4))
    M = rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        mode3_product(2.0 * X - Y, M),
        2.0 * mode3_product(X, M) - mode3_product(Y, M), atol=1e-13)


def test_mode3_rejects_bad_shapes():
    X = np.zeros((2, 2, 3))
    with pytest.raises(ValueError):
        mode3_product(X, np.eye(2))
    with pytest.raises(ValueError):
        mode3_product(np.zeros((2, 2)), np.eye(2))


def test_lproduct_definition_is_face_stack_matmul():
    # the l-product by its definition under the DCT C: carry both tensors
    # along their tubes by C, multiply slice by slice, carry back by C^T
    rng = np.random.default_rng(7)
    n, m, p, l = 3, 2, 5, 4
    X = rng.standard_normal((n, m, l))
    Y = rng.standard_normal((m, p, l))
    C = dct_matrix(l)
    Xh, Yh = mode3_product(X, C), mode3_product(Y, C)
    Zh = np.empty((n, p, l))
    for k in range(l):
        Zh[:, :, k] = Xh[:, :, k] @ Yh[:, :, k]
    by_definition = mode3_product(Zh, C.T)
    spec = op.tensor_stiefel(n, m, l)
    faces = spec.embed_tensor(X) @ spec.embed_tensor(Y)
    np.testing.assert_allclose(spec.extract_tensor(faces), by_definition, atol=1e-13)
