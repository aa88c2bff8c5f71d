import numpy as np
import pytest

from orthopt.tensor import (
    SingularSliceError,
    TransformMatrix,
    dct_matrix,
    dct_transform,
    facewise_product,
    lproduct,
    lproduct_identity,
    lproduct_transpose,
    mode3_product,
    tqr,
)


def test_transform_matrix_checks_inverse():
    T = TransformMatrix([[2.0, 0.0], [0.0, 4.0]])
    np.testing.assert_allclose(T.Minv, [[0.5, 0.0], [0.0, 0.25]])
    with pytest.raises(ValueError):
        TransformMatrix(np.eye(2), Minv=np.eye(2) * 1.5)
    with pytest.raises(ValueError):
        TransformMatrix(np.ones((2, 3)))


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


def test_facewise_identity_slices():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 3, 2))
    I = np.dstack([np.eye(3)] * 2)
    np.testing.assert_allclose(facewise_product(X, I), X, atol=1e-15)


def test_facewise_scalar_slices():
    X = np.array([[[2.0, 3.0]]])
    Y = np.array([[[5.0, 7.0]]])
    np.testing.assert_allclose(facewise_product(X, Y)[0, 0, :], [10.0, 21.0])


def test_facewise_matches_slice_loop():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 2, 2))
    Y = rng.standard_normal((2, 2, 2))
    out = facewise_product(X, Y)
    for k in range(2):
        np.testing.assert_allclose(out[:, :, k], X[:, :, k] @ Y[:, :, k], atol=1e-14)


def test_facewise_rejects_mismatch():
    with pytest.raises(ValueError):
        facewise_product(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        facewise_product(np.zeros((3, 2, 2)), np.zeros((2, 2, 3)))


def test_lproduct_identity_tensor():
    rng = np.random.default_rng(5)
    T = dct_transform(3)
    X = rng.standard_normal((4, 2, 3))
    I = lproduct_identity(2, 3, T)
    np.testing.assert_allclose(lproduct(X, I, T), X, atol=1e-13)


def test_lproduct_degenerates_to_matmul():
    rng = np.random.default_rng(6)
    T = TransformMatrix([[1.0]])
    X = rng.standard_normal((4, 3, 1))
    Y = rng.standard_normal((3, 2, 1))
    np.testing.assert_allclose(
        lproduct(X, Y, T)[:, :, 0], X[:, :, 0] @ Y[:, :, 0], atol=1e-14)


def test_diag_unfold_is_lproduct_homomorphism():
    # in the transform domain the l-product is the face-wise product, so the
    # block-diagonal unfolding of the transformed tensors carries it to matmul
    rng = np.random.default_rng(7)
    T = dct_transform(4)
    X = rng.standard_normal((3, 2, 4))
    Y = rng.standard_normal((2, 5, 4))
    lhs = mode3_product(lproduct(X, Y, T), T.M)
    rhs = facewise_product(mode3_product(X, T.M), mode3_product(Y, T.M))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_tqr_reconstructs():
    rng = np.random.default_rng(10)
    T = dct_transform(4)
    X = rng.standard_normal((6, 3, 4))
    Q, R = tqr(X, T)
    np.testing.assert_allclose(lproduct(Q, R, T), X, atol=1e-10 * np.linalg.norm(X))
    gram = lproduct(lproduct_transpose(Q, T), Q, T)
    np.testing.assert_allclose(gram, lproduct_identity(3, 4, T), atol=1e-10)


def test_tqr_positive_transform_diagonal():
    rng = np.random.default_rng(11)
    T = dct_transform(3)
    _, R = tqr(rng.standard_normal((5, 2, 3)), T)
    Rh = mode3_product(R, T.M)
    for k in range(3):
        assert np.all(np.diag(Rh[:, :, k]) > 0)
        np.testing.assert_allclose(Rh[:, :, k], np.triu(Rh[:, :, k]), atol=1e-12)


def test_tqr_fixed_point_on_orthogonal_input():
    rng = np.random.default_rng(12)
    T = dct_transform(3)
    Q0, _ = tqr(rng.standard_normal((5, 3, 3)), T)
    Q, R = tqr(Q0, T)
    np.testing.assert_allclose(Q, Q0, atol=1e-12)
    np.testing.assert_allclose(R, lproduct_identity(3, 3, T), atol=1e-12)


def test_tqr_l1_is_plain_qr():
    rng = np.random.default_rng(13)
    T = TransformMatrix([[1.0]])
    A = rng.standard_normal((5, 2))
    Q, R = tqr(A[:, :, None], T)
    np.testing.assert_allclose(Q[:, :, 0] @ R[:, :, 0], A, atol=1e-13)
    np.testing.assert_allclose(Q[:, :, 0].T @ Q[:, :, 0], np.eye(2), atol=1e-13)


def test_tqr_rejects_rank_deficient_slice():
    T = dct_transform(2)
    X = np.zeros((4, 2, 2))
    X[:, 0, :] = 1.0   # second column identically zero
    with pytest.raises(SingularSliceError):
        tqr(X, T)
