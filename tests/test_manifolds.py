import re

import numpy as np
import pytest

import orthopt as op
import orthopt.linalg as linalg_mod
from orthopt.diagnostics import (
    battery_specs,
    check_assumptions,
    check_constraint_in_s1,
    check_cross_gram,
    check_dissolve_carry,
)
from orthopt.linalg import lyapunov_solve, skew, sym
from orthopt.manifolds import (
    FeasibilityError,
    FeasiblePoint,
    IndefiniteStiefel,
    RetractError,
    SignedPermutation,
    Stiefel,
    SymplecticStiefel,
    TensorStiefel,
    ThetaDegenerateError,
    _cayley_apply,
    _j_right,
    constraint,
    project_tangent,
    random_tangent,
    retract,
    riemannian_gradient,
    riemannian_hessvec,
    symplectic_j,
    tangent_test,
    theta_lstsq,
    vector_transport,
)
from orthopt.tensor import qr_posdiag

# the six desk families and indefinite frames with a rotated A (dense phi)
SPECS = battery_specs()


@pytest.fixture(params=list(SPECS.values()), ids=list(SPECS))
def spec(request):
    return request.param


# ---------------------------------------------------------------- constraint

def test_constraint_zero_on_identity_columns():
    spec = op.stiefel(5, 2)
    X = np.eye(5)[:, :2]
    np.testing.assert_allclose(constraint(spec, X), 0.0, atol=1e-15)


def test_constraint_symplectic_feasible_is_zero():
    spec = op.symplectic_stiefel(8, 4)
    pt = spec.random_feasible(0)
    Jn, Jp = symplectic_j(4), spec.q
    assert np.linalg.norm(pt.X.T @ Jn @ pt.X - Jp) < 1e-12
    np.testing.assert_allclose(constraint(spec, pt.X), 0.0, atol=1e-12)


@pytest.mark.parametrize("n2,p2", [(2, 2), (8, 2), (16, 8), (1000, 20)])
def test_symplectic_phi_swap_equals_dense_product(n2, p2):
    spec = op.symplectic_stiefel(n2, p2)
    X = np.random.default_rng(n2 + p2).standard_normal((n2, p2))
    assert np.array_equal(spec.phi(X), -symplectic_j(n2 // 2) @ X @ spec.q)


def test_symplectic_swaps_equal_dense_j_products():
    spec = op.symplectic_stiefel(12, 4)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 4))
    S = rng.standard_normal((12, 12))
    Jn = symplectic_j(6)
    assert np.array_equal(_j_right(X), X @ spec.q)
    assert np.array_equal(_j_right(S), S @ Jn)


@pytest.mark.parametrize("args", [(9, 3, 5, 2), (120, 24, 60, 12)])
def test_indefinite_phi_scaling_equals_dense_product(args):
    spec = op.indefinite_stiefel(*args)
    X = np.random.default_rng(args[0]).standard_normal(args[:2])
    np.testing.assert_array_equal(spec.phi(X), np.diag(spec.a) @ X @ spec.J)


def test_indefinite_default_spec_holds_no_n_by_n_array():
    spec = op.indefinite_stiefel(1000, 24, 500, 12)
    shapes = [v.shape for v in vars(spec).values() if isinstance(v, np.ndarray)]
    assert (1000, 1000) not in shapes
    assert spec.A.shape == (1000, 1000)


def _dense_eigh_random_feasible(spec, seed):
    # the dense construction: eigh of A, X = V |w|^{-1/2} Yt, W = skew(.) A
    w, V = np.linalg.eigh(spec.A)
    order = np.argsort(-w)
    w, V = w[order], V[:, order]
    rng = np.random.default_rng(seed)
    npos, p_m = int((w > 0).sum()), spec.p - spec.p_k
    Yt = np.zeros((spec.n, spec.p))
    Yt[:npos, :spec.p_k] = qr_posdiag(rng.standard_normal((npos, spec.p_k)))[0]
    Yt[npos:, spec.p_k:] = qr_posdiag(rng.standard_normal((spec.n - npos, p_m)))[0]
    X = (V / np.sqrt(np.abs(w))) @ Yt
    W = skew(rng.standard_normal((spec.n, spec.n))) @ spec.A
    W *= 1.0 / max(1.0, np.linalg.norm(W))
    return _cayley_apply(W, X)


@pytest.mark.parametrize("args", [(9, 3, 5, 2), (120, 24, 60, 12)])
def test_indefinite_random_feasible_matches_dense_eigh(args):
    spec = op.indefinite_stiefel(*args)
    for seed in range(3):
        np.testing.assert_array_equal(spec.random_feasible(seed).X,
                                      _dense_eigh_random_feasible(spec, seed))


def _reference_start(spec, seed):
    # random_feasible by dense formulas, the reference for the in-place
    # build: sym/skew of the draw, a dense product with J_2n or A, the Cayley
    # transform as solve(I - W/2, X + W X / 2), and eigh of the dense A
    rng = np.random.default_rng(seed)
    n = spec.n
    if isinstance(spec, SymplecticStiefel):
        m, k = n // 2, spec.p // 2
        X = np.zeros((n, spec.p))
        X[:m, :k] = np.eye(m)[:, :k]
        X[m:, k:] = np.eye(m)[:, :k]
        W = sym(rng.standard_normal((n, n))) @ symplectic_j(m)
    else:
        w, V = np.linalg.eigh(spec.A)
        order = np.argsort(-w)
        w, V = w[order], V[:, order]
        npos, p_m = int((w > 0).sum()), spec.p - spec.p_k
        Yt = np.zeros((n, spec.p))
        Yt[:npos, :spec.p_k] = qr_posdiag(rng.standard_normal((npos, spec.p_k)))[0]
        if p_m:
            Yt[npos:, spec.p_k:] = qr_posdiag(rng.standard_normal((n - npos, p_m)))[0]
        X = (V / np.sqrt(np.abs(w))) @ Yt
        W = skew(rng.standard_normal((n, n))) @ spec.A
    W *= 1.0 / max(1.0, np.linalg.norm(W))
    return np.linalg.solve(np.eye(n) - 0.5 * W, X + 0.5 * (W @ X))


@pytest.mark.parametrize("make", [
    lambda: op.symplectic_stiefel(40, 6),
    lambda: op.indefinite_stiefel(30, 5, 12, 3),
    lambda: op.indefinite_stiefel(30, 5, 12, 5),
    lambda: op.generalized_stiefel(30, 4),
    lambda: op.hyperbolic(30, 4),
], ids=["symplectic", "indefinite", "indefinite-pk-eq-p", "generalized", "hyperbolic"])
@pytest.mark.parametrize("seed", [0, 2, 11])
def test_random_feasible_equals_the_dense_cayley_reference_bit_for_bit(make, seed):
    spec = make()
    assert np.array_equal(spec.random_feasible(seed).X, _reference_start(spec, seed))


@pytest.mark.parametrize("make", [
    lambda: op.symplectic_stiefel(400, 8),
    lambda: op.indefinite_stiefel(400, 8, 200, 4),
    lambda: op.hyperbolic(400, 8),
], ids=["symplectic", "indefinite", "hyperbolic"])
def test_random_feasible_keeps_at_most_two_n_by_n_arrays_live(make, traced_peak):
    # W, turned into I - W/2 in place, and the copy np.linalg.solve makes of it
    spec = make()
    spec.random_feasible(0)     # loads what a first call loads
    assert traced_peak(lambda: spec.random_feasible(0)) <= 2.25 * 8 * spec.n ** 2


def test_indefinite_rotated_A_phi_equals_dense_product():
    spec = SPECS["indefinite-stiefel-dense"]
    assert spec.a is None and not np.allclose(spec.A, np.diag(np.diagonal(spec.A)))
    X = np.random.default_rng(46).standard_normal((9, 3))
    np.testing.assert_array_equal(spec.phi(X), spec.A @ X @ spec.J)


def test_constraint_scaled_column():
    spec = op.stiefel(2, 1)
    np.testing.assert_allclose(constraint(spec, np.array([[2.0], [0.0]])), [[3.0]])


def test_feasible_point_rejects_bad_matrix(spec):
    X = spec.random_feasible(0).X * 1.5
    with pytest.raises(FeasibilityError):
        FeasiblePoint(spec, X, tol=1e-8)


@pytest.mark.parametrize("tol", [float("nan"), -1e-8])
def test_feasible_point_rejects_a_nan_or_negative_tol(tol):
    # a NaN tol used to pass the check, so an all-ones 6 x 2 frame (residual
    # 11) came back as a point; a tol no residual can meet is a ValueError
    spec = op.stiefel(6, 2)
    for X in (np.ones((6, 2)), spec.random_feasible(0).X):
        with pytest.raises(ValueError, match="tol must be nonnegative") as info:
            FeasiblePoint(spec, X, tol=tol)
        assert not isinstance(info.value, FeasibilityError)


def test_an_array_of_another_shape_is_not_a_point():
    # an orthonormal 8 x 2 frame is no point of stiefel(6, 2), nor a stack
    # of 4 faces one of tensor_stiefel(5, 2, 3)
    spec, X = op.stiefel(6, 2), qr_posdiag(np.random.default_rng(3).standard_normal((8, 2)))[0]
    for convert in (lambda: FeasiblePoint(spec, X), lambda: project_tangent(spec, X, X),
                    lambda: op.penalty_value(op.PenaltyFunction(spec, op.toy_problem(spec, 0), 1.0), X)):
        with pytest.raises(ValueError, match=r"\(6, 2\).*\(8, 2\)"):
            convert()
    tensor = op.tensor_stiefel(5, 2, 3)
    faces = qr_posdiag(np.random.default_rng(4).standard_normal((4, 5, 2)))[0]
    with pytest.raises(ValueError, match=r"\(3, 5, 2\).*\(4, 5, 2\)"):
        FeasiblePoint(tensor, faces)


# name -> (a call of (spec, X, the wrong array), the shape of that array) on stiefel(6, 2)
_WRONG_SHAPES = {
    "project_tangent": (project_tangent, (6, 1)),
    "theta_lstsq": (theta_lstsq, (6, 1)),
    "riemannian_gradient": (riemannian_gradient, (3, 6, 2)),
    "vector_transport": (vector_transport, (3, 6, 2)),
    "riemannian_hessvec-Z": (lambda s, X, W: riemannian_hessvec(s, X, W, X, X), (6, 1)),
    "riemannian_hessvec-egrad": (lambda s, X, W: riemannian_hessvec(s, X, X, W, X), (6, 1)),
    "riemannian_hessvec-ehessvec": (lambda s, X, W: riemannian_hessvec(s, X, X, X, W), (6, 1)),
    "tangent_test": (tangent_test, (6, 1)),
    "retract": (retract, (3, 6, 2)),
    "spec.retract": (lambda s, X, W: s.retract(s.random_feasible(0), W), (3, 6, 2)),
    "dC-column": (op.dC, (6, 1)),
    "dC-stack": (op.dC, (3, 6, 2)),
    "dCA": (op.dCA, (6, 1)),
    "dA": (op.dA, (3, 6, 2)),
    "dA_adjoint": (op.dA_adjoint, (3, 6, 2)),
    "dC_adjoint": (op.dC_adjoint, (3, 2, 2)),
    "penalty_hessvec": (lambda s, X, W: op.penalty_hessvec(
        op.PenaltyFunction(s, op.toy_problem(s, 0), 1.0), X, W), (6, 1)),
}


@pytest.mark.parametrize("name", list(_WRONG_SHAPES))
def test_a_direction_of_another_shape_is_rejected(name):
    # a direction that would broadcast against X raises ValueError naming
    # the shape it needs and the one it got, instead of an answer of the
    # wrong shape or another error
    call, shape = _WRONG_SHAPES[name]
    spec = op.stiefel(6, 2)
    need = (2, 2) if name == "dC_adjoint" else (6, 2)
    with pytest.raises(ValueError, match=rf"\({need[0]}, {need[1]}\).*{re.escape(str(shape))}"):
        call(spec, spec.random_feasible(0).X, np.ones(shape))


def test_feasible_point_holds_a_read_only_copy_of_the_callers_array():
    # a later write to the caller's array moves neither the point nor its
    # residual, nor the first trace row of a solve started from it
    prob = op.build_lsm(20, 4, seed=0)
    spec = prob.spec
    assert not spec.random_feasible(0).X.flags.writeable
    X = np.array(spec.random_feasible(0).X)
    pt = FeasiblePoint(spec, X)
    kept, feas = pt.X.copy(), pt.feas
    assert not np.shares_memory(pt.X, X) and not pt.X.flags.writeable
    X[0, 0] += 0.5
    assert np.linalg.norm(constraint(spec, X)) > 0.5
    np.testing.assert_array_equal(pt.X, kept)
    assert pt.feas == feas == np.linalg.norm(constraint(spec, kept)) and feas < 1e-12
    pf = op.PenaltyFunction(spec, prob, 0.5)
    assert op.run_solver("rgd", pf, pt, op.SolverConfig(max_iter=1)).trace[0][3] == feas


# ----------------------------------------------------------------- gen_sym

def test_gen_sym_doubles_symmetric_on_identity_psi():
    spec = op.stiefel(6, 3)
    T = np.random.default_rng(0).standard_normal((3, 3))
    T = T + T.T
    np.testing.assert_allclose(spec.gen_sym(T), 2.0 * T)


def test_gen_sym_signature_matrix_doubles():
    spec = op.indefinite_stiefel(9, 3, k=5, p_k=2)
    np.testing.assert_allclose(spec.gen_sym(spec.J), 2.0 * spec.J)


def test_assumption_identities(spec):
    # phi self-adjoint, phi(X T) = phi(X) psi(T), psi(phi(X)^T X) = X^T phi(X),
    # psi(psi(T)) = T, and X^T phi(Z) = psi(phi(X)^T Z) on and off the manifold
    ok, worst = check_assumptions(spec)
    assert ok, worst
    ok, worst = check_constraint_in_s1(spec)
    assert ok, worst
    ok, worst = check_cross_gram(spec)
    assert ok, worst


class _ShearedStiefel(Stiefel):
    """phi(X) = M X with M = I + a strictly upper triangular shear: linear,
    one-to-one and phi(X T) = phi(X) T, but not self-adjoint."""

    def __init__(self, n, p):
        super().__init__(n, p)
        self.M = np.eye(n) + np.triu(np.random.default_rng(0).standard_normal((n, n)), 1)

    def phi(self, X):
        return self.M @ np.asarray(X, dtype=float)

    def random_feasible(self, seed=0):
        # an orthonormal frame, not a point of this spec: the check reads
        # only its X
        return op.stiefel(self.n, self.p).random_feasible(seed)


def test_cross_gram_check_fails_where_phi_is_not_self_adjoint():
    spec = _ShearedStiefel(8, 3)
    rng = np.random.default_rng(1)
    X, T = rng.standard_normal((8, 3)), rng.standard_normal((3, 3))
    np.testing.assert_allclose(spec.phi(X @ T), spec.phi(X) @ T, rtol=1e-12)
    ok, worst = check_cross_gram(spec)
    assert not ok and worst > 0.1


def test_dissolving_step_carries_gram_and_phi(spec):
    # at 1e-2 off the manifold, the Gram matrix and phi a trial point
    # carries from its raw step agree with fresh ones to 1e-12 relative
    ok, worst = check_dissolve_carry(spec)
    assert ok, worst


class _UnswappedSymplectic(SymplecticStiefel):
    """Symplectic frames with psi taken as the identity, which is not the
    companion of their phi: phi(X T) = phi(X) J^T T J, not phi(X) T."""

    def psi(self, T):
        return np.asarray(T, dtype=float)


def test_dissolve_carry_check_fails_with_a_wrong_psi():
    ok, worst = check_dissolve_carry(_UnswappedSymplectic(8, 4))
    assert not ok and worst > 1e-6


def test_gen_sym_lands_in_s1_span(spec):
    rng = np.random.default_rng(1)
    basis = spec.s1_basis()
    for _ in range(5):
        T = spec.random_gram(rng)
        S = spec.gen_sym(T)
        coords = np.tensordot(basis, S, axes=S.ndim)
        recon = np.tensordot(coords, basis, axes=(0, 0))
        assert np.linalg.norm(recon - S) <= 1e-12 * max(np.linalg.norm(S), 1.0)


def test_s1_basis_orthonormal(spec):
    B = spec.s1_basis()
    G = np.tensordot(B, B, axes=(list(range(1, B.ndim)),) * 2)
    np.testing.assert_allclose(G, np.eye(B.shape[0]), atol=1e-12)


# -------------------------------------------------------------- tangent test

def test_tangent_zero_direction(spec):
    pt = spec.random_feasible(0)
    ok, resid = tangent_test(spec, pt, np.zeros_like(pt.X))
    assert ok and resid == 0.0


def test_tangent_basis_vector_case():
    spec = op.stiefel(2, 1)
    pt = FeasiblePoint(spec, np.array([[1.0], [0.0]]))
    ok, _ = tangent_test(spec, pt, np.array([[0.0], [1.0]]))
    assert ok


def test_point_itself_is_not_tangent():
    spec = op.stiefel(5, 2)
    pt = spec.random_feasible(1)
    ok, resid = tangent_test(spec, pt, pt.X)
    assert not ok
    np.testing.assert_allclose(resid, 2.0 * np.sqrt(2), rtol=1e-12)


def test_random_tangent_passes_test(spec):
    pt = spec.random_feasible(3)
    Z = random_tangent(spec, pt, 4)
    ok, resid = tangent_test(spec, pt, Z, tol=1e-10 * max(1.0, np.linalg.norm(Z)))
    assert ok, resid


GEOMETRY = pytest.mark.parametrize("geometry", [
    lambda spec, point, D, E: project_tangent(spec, point, D),
    lambda spec, point, D, E: riemannian_gradient(spec, point, D),
    lambda spec, point, D, E: vector_transport(spec, point, D),
    lambda spec, point, D, E: riemannian_hessvec(spec, point, project_tangent(spec, point, E), D, E),
    lambda spec, point, D, E: random_tangent(spec, point, 7),
], ids=["project_tangent", "riemannian_gradient", "vector_transport", "riemannian_hessvec",
        "random_tangent"])


@GEOMETRY
def test_geometry_takes_a_raw_array_as_an_unchecked_point(spec, geometry):
    # an array is a throwaway point at a copy of it, so it gives the point's bits
    pt = spec.random_feasible(13)
    rng = np.random.default_rng(14)
    D, E = spec.random_ambient(rng), spec.random_ambient(rng)
    X = np.array(pt.X)
    np.testing.assert_array_equal(geometry(spec, X, D, E), geometry(spec, pt, D, E))
    assert X.flags.writeable


@GEOMETRY
def test_geometry_takes_a_point_of_another_spec_at_its_X(geometry):
    # a point of another spec is a throwaway point of the given spec at a
    # copy of its X: the bits of the raw array, tangent to the given spec,
    # and the point keeps no factor of another spec
    spec, other = op.stiefel(12, 4), op.symplectic_stiefel(12, 4)
    pt = other.random_feasible(1)
    rng = np.random.default_rng(14)
    D, E = spec.random_ambient(rng), spec.random_ambient(rng)
    out = geometry(spec, pt, D, E)
    np.testing.assert_array_equal(out, geometry(spec, np.array(pt.X), D, E))
    ok, resid = tangent_test(spec, pt, out, tol=1e-10 * max(1.0, np.linalg.norm(out)))
    assert ok, resid
    assert pt.normal is None and pt.spec is other


# -------------------------------------------------------------------- theta

def test_theta_exact_recovery(spec):
    pt = spec.random_feasible(2)
    rng = np.random.default_rng(5)
    basis = spec.s1_basis()
    S0 = np.tensordot(rng.standard_normal(basis.shape[0]), basis, axes=(0, 0))
    D = pt.phiX @ S0
    S = theta_lstsq(spec, pt, D)
    np.testing.assert_allclose(S, S0, atol=1e-10 * max(1.0, np.linalg.norm(S0)))


def test_theta_stiefel_closed_form_matches_generic(theta_oracle):
    spec = op.stiefel(20, 4)
    pt = spec.random_feasible(0)
    D = np.random.default_rng(6).standard_normal((20, 4))
    S_generic, _ = theta_oracle(spec, pt.phiX, D)
    S = theta_lstsq(spec, pt, D)
    np.testing.assert_allclose(S, 0.5 * (pt.X.T @ D + D.T @ pt.X), atol=1e-14)
    rel = np.linalg.norm(S_generic - S) / np.linalg.norm(S)
    assert rel <= 1e-10


def test_theta_indefinite_lyapunov_matches_generic(theta_oracle):
    spec = op.indefinite_stiefel(20, 4, k=12, p_k=3)
    pt = spec.random_feasible(1)
    D = np.random.default_rng(7).standard_normal((20, 4))
    S_generic, _ = theta_oracle(spec, pt.phiX, D)
    S_lyap = theta_lstsq(spec, pt, D)
    rel = np.linalg.norm(S_generic - S_lyap) / np.linalg.norm(S_lyap)
    assert rel <= 1e-10


def test_theta_generic_matches_normal_equations_brute_force(spec):
    # independent oracle: assemble and solve the normal equations over the
    # vectorized design instead of calling a least-squares routine
    if spec.p > 4 or spec.n > 20:
        pytest.skip("brute-force oracle is pinned to small sizes")
    pt = spec.random_feasible(30)
    D = spec.random_ambient(np.random.default_rng(30))
    basis = spec.s1_basis()
    cols = np.stack([(pt.phiX @ B).ravel() for B in basis], axis=1)
    coef = np.linalg.solve(cols.T @ cols, cols.T @ D.ravel())
    S_brute = np.tensordot(coef, basis, axes=(0, 0))
    S = theta_lstsq(spec, pt, D)
    rel = np.linalg.norm(S - S_brute) / max(np.linalg.norm(S_brute), 1e-30)
    assert rel <= 1e-10


def test_theta_normal_equations_residual(spec):
    pt = spec.random_feasible(4)
    D = spec.random_ambient(np.random.default_rng(8))
    S = theta_lstsq(spec, pt, D)
    resid = pt.phiX @ S - D
    for B in spec.s1_basis():
        assert abs(np.vdot(pt.phiX @ B, resid)) <= 1e-10 * max(1.0, np.linalg.norm(D))


def test_theta_degenerate_design_carries_solution(theta_oracle):
    spec = op.stiefel(6, 3)
    X = np.zeros((6, 3))
    X[:, 0] = X[:, 1] = np.eye(6)[:, 0]   # repeated column: phi(X) loses rank
    X[:, 2] = np.eye(6)[:, 1]
    D = np.random.default_rng(9).standard_normal((6, 3))
    with pytest.raises(ThetaDegenerateError) as err:
        theta_lstsq(spec, X, D)
    S_min, rank = theta_oracle(spec, spec.phi(X), D)
    assert rank < spec.s1_basis().shape[0]
    np.testing.assert_allclose(err.value.solution, S_min, atol=1e-12)


# --------------------------------------------------------------- projection

def test_project_tangent_fixes_tangent_vectors(spec):
    pt = spec.random_feasible(5)
    Z = random_tangent(spec, pt, 6)
    np.testing.assert_allclose(project_tangent(spec, pt, Z), Z,
                               atol=1e-9 * max(1.0, np.linalg.norm(Z)))


def test_project_tangent_annihilates_normal_vectors(spec):
    pt = spec.random_feasible(7)
    rng = np.random.default_rng(10)
    T = spec.random_gram(rng)
    N = pt.phiX @ spec.gen_sym(T)
    out = project_tangent(spec, pt, N)
    assert np.linalg.norm(out) <= 1e-10 * max(1.0, np.linalg.norm(N))


def test_project_tangent_idempotent(spec):
    pt = spec.random_feasible(8)
    D = spec.random_ambient(np.random.default_rng(11))
    P1 = project_tangent(spec, pt, D)
    P2 = project_tangent(spec, pt, P1)
    assert np.linalg.norm(P2 - P1) <= 1e-10 * max(1.0, np.linalg.norm(D))
    ok, resid = tangent_test(spec, pt, P1, tol=1e-9 * max(1.0, np.linalg.norm(D)))
    assert ok, resid


def test_project_tangent_stiefel_closed_form():
    spec = op.stiefel(5, 2)
    pt = spec.random_feasible(12)
    D = np.random.default_rng(12).standard_normal((5, 2))
    expected = D - pt.X @ (0.5 * (pt.X.T @ D + D.T @ pt.X))
    np.testing.assert_allclose(project_tangent(spec, pt, D), expected, atol=1e-12)


def test_vector_transport_is_projection(spec):
    pt = spec.random_feasible(9)
    Z = spec.random_ambient(np.random.default_rng(13))
    np.testing.assert_array_equal(vector_transport(spec, pt, Z),
                                  project_tangent(spec, pt, Z))


# ------------------------------------------------------- Riemannian gradient

def test_riemannian_gradient_kills_normal_component(spec):
    pt = spec.random_feasible(10)
    T = spec.random_gram(np.random.default_rng(14))
    egrad = pt.phiX @ spec.gen_sym(T)
    g = riemannian_gradient(spec, pt, egrad)
    assert np.linalg.norm(g) <= 1e-9 * max(1.0, np.linalg.norm(egrad))


def test_riemannian_gradient_fixes_tangent_gradient(spec):
    pt = spec.random_feasible(11)
    egrad = random_tangent(spec, pt, 15)
    np.testing.assert_allclose(riemannian_gradient(spec, pt, egrad), egrad,
                               atol=1e-9 * max(1.0, np.linalg.norm(egrad)))


def test_riemannian_gradient_preserves_tangent_pairings(spec):
    pt = spec.random_feasible(12)
    rng = np.random.default_rng(16)
    egrad = spec.random_ambient(rng)
    g = riemannian_gradient(spec, pt, egrad)
    for s in range(5):
        Z = random_tangent(spec, pt, 100 + s)
        assert abs(np.vdot(g, Z) - np.vdot(egrad, Z)) <= \
            1e-10 * max(1.0, np.linalg.norm(egrad) * np.linalg.norm(Z))


def test_riemannian_gradient_two_paths_agree_on_quadratic():
    spec = op.indefinite_stiefel(9, 3, k=5, p_k=2)
    pt = spec.random_feasible(17)
    A0 = spec.random_ambient(np.random.default_rng(17))
    egrad = 2.0 * (pt.X - A0)
    np.testing.assert_allclose(riemannian_gradient(spec, pt, egrad),
                               project_tangent(spec, pt, egrad), atol=1e-13)


# --------------------------------------------------------- Riemannian Hessian

def _toy_pf(spec, seed):
    return op.toy_problem(spec, seed)


def test_riemannian_hessvec_matches_fd_along_retraction(spec):
    prob = _toy_pf(spec, 18)
    pt = spec.random_feasible(18)
    Z = random_tangent(spec, pt, 19)
    Z /= np.linalg.norm(Z)
    hv = riemannian_hessvec(spec, pt, Z, prob.grad(pt.X), prob.hessvec(pt.X, Z))
    t = 1e-5
    gp = riemannian_gradient(spec, spec.retract(pt, t * Z), prob.grad(spec.retract(pt, t * Z).X))
    gm = riemannian_gradient(spec, spec.retract(pt, -t * Z), prob.grad(spec.retract(pt, -t * Z).X))
    fd = project_tangent(spec, pt, (gp - gm) / (2.0 * t))
    assert np.linalg.norm(fd - hv) <= 1e-5 * max(1.0, np.linalg.norm(hv))


def test_riemannian_hessvec_is_symmetric_form(spec):
    prob = _toy_pf(spec, 20)
    pt = spec.random_feasible(20)
    egrad = prob.grad(pt.X)
    for s in range(5):
        Z1 = random_tangent(spec, pt, 200 + s)
        Z2 = random_tangent(spec, pt, 300 + s)
        h1 = riemannian_hessvec(spec, pt, Z1, egrad, prob.hessvec(pt.X, Z1))
        h2 = riemannian_hessvec(spec, pt, Z2, egrad, prob.hessvec(pt.X, Z2))
        assert abs(np.vdot(Z1, h2) - np.vdot(Z2, h1)) <= 1e-8 * max(
            1.0, np.linalg.norm(Z1) * np.linalg.norm(Z2))


def test_riemannian_hessvec_zero_for_flat_data(spec):
    pt = spec.random_feasible(21)
    Z = random_tangent(spec, pt, 22)
    out = riemannian_hessvec(spec, pt, Z, np.zeros_like(pt.X), np.zeros_like(pt.X))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


# ------------------------------------------------------------- retractions

def test_retract_zero_step_returns_same_point(spec):
    pt = spec.random_feasible(23)
    assert spec.retract(pt, np.zeros_like(pt.X)) is pt


def test_retract_feasible_output(spec):
    pt = spec.random_feasible(24)
    Z = random_tangent(spec, pt, 25)
    new = spec.retract(pt, Z / max(1.0, np.linalg.norm(Z)))
    assert new.feas <= 1e-10


def test_retract_first_order_slope(spec):
    pt = spec.random_feasible(26)
    Z = random_tangent(spec, pt, 27)
    Z /= np.linalg.norm(Z)
    ts = (1e-2, 1e-3, 1e-4)
    errs = [np.linalg.norm(spec.retract(pt, t * Z).X - (pt.X + t * Z)) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_retract_is_repeated_dissolving_from_x_plus_z(spec):
    # at least one dissolving step, even from an X + Z already feasible to 1e-12
    pt = spec.random_feasible(29)
    Z = random_tangent(spec, pt, 30)
    Z /= np.linalg.norm(Z)
    for t in (0.3, 1e-7):
        Y = pt.X + t * Z
        assert (np.linalg.norm(constraint(spec, Y)) < 1e-12) == (t < 1e-3)
        Y = op.dissolve(spec, Y)
        while not np.linalg.norm(constraint(spec, Y)) < 1e-12:
            Y = op.dissolve(spec, Y)
        new = spec.retract(pt, t * Z)
        assert np.array_equal(new.X, Y)
        assert new.feas <= 1e-12 and not np.array_equal(new.X, pt.X + t * Z)


NON_FINITE_SPECS = {"symplectic_stiefel": (op.symplectic_stiefel, (8, 4)),
                    "indefinite_stiefel": (op.indefinite_stiefel, (9, 3, 5, 2))}


@pytest.mark.parametrize("make,args", NON_FINITE_SPECS.values(), ids=NON_FINITE_SPECS.keys())
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_retract_non_finite_step_raises(make, args, bad):
    spec = make(*args)
    pt = spec.random_feasible(33)
    Z = random_tangent(spec, pt, 34)
    Z[0, 0] = bad
    with pytest.raises(RetractError):
        spec.retract(pt, Z)


def test_retract_step_too_large_raises():
    spec = op.hyperbolic(8, 3, neg=3, seed=0)
    pt = spec.random_feasible(28)
    with pytest.raises(RetractError):
        spec.retract(pt, -pt.X)   # lands on the zero matrix


# ----------------------------------------------------- random feasible points

def test_random_feasible_deterministic(spec):
    A = spec.random_feasible(42).X
    B = spec.random_feasible(42).X
    np.testing.assert_array_equal(A, B)
    C = spec.random_feasible(43).X
    assert np.linalg.norm(A - C) > 1e-6


def test_random_feasible_tolerance(spec):
    for seed in range(5):
        assert spec.random_feasible(seed).feas <= 1e-10


def test_infeasible_parameter_combinations_raise():
    with pytest.raises(ValueError):
        op.indefinite_stiefel(9, 5, k=3, p_k=4)   # p_k > k
    with pytest.raises(ValueError):
        op.hyperbolic(6, 5, neg=3)                # p > n - neg
    with pytest.raises(ValueError):
        op.symplectic_stiefel(7, 4)               # odd dimension
    with pytest.raises(ValueError):
        op.tensor_stiefel(2, 3, 2)                # p > n


# ------------------------------------------------------- submanifold dimension

def _ambient_basis(spec):
    shape = spec.batch + (spec.n, spec.p)
    k = int(np.prod(shape))
    return np.eye(k).reshape((k,) + shape)


def test_constraint_jacobian_rank_matches_s1_dimension(spec):
    pt = spec.random_feasible(29)
    rows = [(pt.X.mT @ spec.phi(B) + B.mT @ pt.phiX).ravel() for B in _ambient_basis(spec)]
    rank = np.linalg.matrix_rank(np.stack(rows), tol=1e-8)
    assert rank == spec.s1_basis().shape[0]


# ------------------------------------------- frames with J = I, and records

def _rotated(diag, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(diag), len(diag))))
    return (Q * np.asarray(diag, dtype=float)) @ Q.T


def test_generalized_and_hyperbolic_are_indefinite_frames_with_identity_J():
    # the default B and H, drawn from the seed as the factories draw them
    rng = np.random.default_rng(2)
    Q, _ = qr_posdiag(rng.standard_normal((8, 8)))
    B0 = sym((Q * rng.uniform(0.5, 2.0, size=8)) @ Q.T)
    Q, _ = qr_posdiag(np.random.default_rng(2).standard_normal((8, 8)))
    H0 = sym((Q * np.array([1.0] * 5 + [-1.0] * 3)) @ Q.T)
    B = sym(_rotated([0.5, 0.8, 1.0, 1.3, 1.7, 2.0, 2.5, 3.0], 47))
    H = sym(_rotated([1.0] * 5 + [-1.0] * 3, 48))
    X = np.random.default_rng(49).standard_normal((8, 3))
    for spec, M in [(op.generalized_stiefel(8, 3, seed=2), B0),
                    (op.generalized_stiefel(8, 3, B=B), B),
                    (op.hyperbolic(8, 3, neg=3, seed=2), H0),
                    (op.hyperbolic(8, 3, H=H), H)]:
        assert spec.q is None and spec.k == (8 if spec.name == "generalized-stiefel" else 5)
        np.testing.assert_array_equal(spec.phi(X), M @ X)
    with pytest.raises(ValueError):
        op.generalized_stiefel(8, 3, B=sym(_rotated([1.0] * 7 + [-1.0], 50)))   # not PD
    with pytest.raises(ValueError):
        op.hyperbolic(8, 3, H=sym(_rotated([2.0] * 5 + [-1.0] * 3, 51)))      # eig not +/-1
    with pytest.raises(ValueError):
        op.hyperbolic(8, 6, neg=3)                                             # p > n - neg
    with pytest.raises(ValueError):
        op.hyperbolic(8, 6, H=H)


@pytest.mark.parametrize("make, match", [
    (lambda: op.indefinite_stiefel(9, 3, k=5, p_k=2, A=np.diag([1.0, 2, 3, 4, 5, -1, -2])),
     r"A must have shape \(9, 9\), not \(7, 7\)"),
    (lambda: op.generalized_stiefel(6, 2, B=np.eye(8)), r"B must have shape \(6, 6\), not \(8, 8\)"),
    (lambda: op.hyperbolic(6, 2, H=np.eye(8)), r"H must have shape \(6, 6\), not \(8, 8\)"),
    (lambda: op.indefinite_stiefel(1, 1, k=0, p_k=0, A=np.zeros((1, 1))), "nonsingular"),
    (lambda: op.indefinite_stiefel(2, 1, k=1, p_k=1, A=np.diag([1.0, np.nan])), "nonsingular"),
    (lambda: op.indefinite_stiefel(3, 2, k=1, p_k=1, A=np.diag([1.0, 0.0, -1.0])), "nonsingular"),
    (lambda: op.tensor_stiefel(4, 2, 0), r"l >= 1"),
    (lambda: op.hyperbolic(2, 1, H=np.diag([2.0, -2.0])), r"eigenvalues \+/- 1"),
    (lambda: op.hyperbolic(8, 3, neg=-2), r"neg must be in \[0, n - p\] = \[0, 5\], got -2"),
    (lambda: op.hyperbolic(8, 3, neg=9), r"neg must be in \[0, n - p\] = \[0, 5\], got 9"),
    (lambda: op.hyperbolic(8, 3, neg=6), r"neg must be in \[0, n - p\] = \[0, 5\], got 6"),
    (lambda: op.hyperbolic(8, 3, neg=7.5, H=np.eye(8)), "neg .* cannot be passed with H"),
], ids=["A-size", "B-size", "H-size", "A-zero", "A-nan", "A-singular", "l-zero", "H-eig-2",
        "neg-negative", "neg-above-n", "neg-above-n-minus-p", "neg-with-H"])
def test_a_matrix_or_size_a_family_cannot_take_is_rejected_with_the_reason(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_a_non_symmetric_A_B_or_H_is_rejected_not_symmetrized():
    # the factories used to replace such a matrix by its symmetric part, so
    # a generalized Stiefel spec met X^T sym(B) X = I and missed X^T B X = I
    B = np.diag(np.arange(1.0, 7.0))
    B[0, 1] = 0.5
    A = np.diag([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    A[4, 1] = 0.25
    H = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    H[2, 3] = 0.1
    for make, name in [(lambda: op.generalized_stiefel(6, 2, B=B), "B"),
                       (lambda: op.indefinite_stiefel(6, 2, 3, 1, A=A), "A"),
                       (lambda: op.hyperbolic(6, 2, H=H), "H")]:
        with pytest.raises(ValueError, match=f"^{name} must be symmetric"):
            make()
    # asymmetry at the rounding level is still taken, as the symmetric part
    R = _rotated(np.arange(1.0, 7.0), 53)
    assert 0 < np.linalg.norm(R - R.T) <= 1e-12 * np.linalg.norm(R)
    np.testing.assert_array_equal(op.generalized_stiefel(6, 2, B=R).A, sym(R))


def test_custom_A_must_have_k_positive_eigenvalues():
    A = np.diag([1.0, 2, 3, 4, 5, -1, -2, -3, -4])
    with pytest.raises(ValueError, match="5 positive eigenvalues"):
        op.indefinite_stiefel(9, 3, k=8, p_k=2, A=A)
    with pytest.raises(ValueError, match="5 positive eigenvalues"):
        op.indefinite_stiefel(9, 3, k=4, p_k=2, A=_rotated(np.diagonal(A), 52))
    assert op.indefinite_stiefel(9, 3, k=5, p_k=2, A=A).k == 5
    assert SPECS["indefinite-stiefel-dense"].k == 5


def test_indefinite_with_full_positive_block_has_no_q_and_retracts():
    spec = op.indefinite_stiefel(9, 3, k=5, p_k=3)
    assert spec.q is None
    pt = spec.random_feasible(0)
    Z = random_tangent(spec, pt, 1)
    new = spec.retract(pt, 0.5 * Z / np.linalg.norm(Z))
    assert np.linalg.norm(constraint(spec, new.X)) <= 1e-12


# each factory's integer sizes (and seed); the same call with every size a
# float or a NumPy integer builds the same spec
FACTORY_SIZES = {
    "stiefel": (op.stiefel, {"n": 8, "p": 3}),
    "generalized-stiefel": (op.generalized_stiefel, {"n": 8, "p": 3, "seed": 2}),
    "symplectic-stiefel": (op.symplectic_stiefel, {"n": 8, "p": 4}),
    "indefinite-stiefel": (op.indefinite_stiefel, {"n": 9, "p": 3, "k": 5, "p_k": 2}),
    "hyperbolic": (op.hyperbolic, {"n": 8, "p": 3, "neg": 3, "seed": 1}),
    "tensor-stiefel": (op.tensor_stiefel, {"n": 4, "p": 2, "l": 3}),
}


@pytest.mark.parametrize("name", list(FACTORY_SIZES))
def test_factories_take_integral_numbers_as_sizes(name):
    make, sizes = FACTORY_SIZES[name]
    spec = make(**sizes)
    X = spec.random_ambient(np.random.default_rng(3))
    for kind in (float, np.int64):
        clone = make(**{k: v if k == "seed" else kind(v) for k, v in sizes.items()})
        assert clone.name == spec.name == name
        for key in ("n", "p", "k", "p_k", "l"):
            if hasattr(spec, key):
                assert type(getattr(clone, key)) is int
                assert getattr(clone, key) == getattr(spec, key)
        np.testing.assert_array_equal(clone.phi(X), spec.phi(X))
        np.testing.assert_array_equal(clone.random_feasible(5).X, spec.random_feasible(5).X)


@pytest.mark.parametrize("make, key", [
    (lambda: op.stiefel(8.7, 3), "n"),
    (lambda: Stiefel(8, 2.5), "p"),
    (lambda: op.generalized_stiefel(8.7, 3), "n"),
    (lambda: op.symplectic_stiefel(8, 4.5), "p"),
    (lambda: SymplecticStiefel(8.5, 4), "n"),
    (lambda: op.indefinite_stiefel(9, 3, k=5.5, p_k=2), "k"),
    (lambda: IndefiniteStiefel(9, 3, 5, np.nan), "p_k"),
    (lambda: op.hyperbolic(8, 3, neg=2.5), "neg"),
    (lambda: op.hyperbolic(8.7, 3), "n"),
    (lambda: op.tensor_stiefel(4, 2, 3.5), "l"),
    (lambda: TensorStiefel(4, 2.5, 3), "p"),
], ids=["stiefel-n", "Stiefel-p", "generalized-n", "symplectic-p", "Symplectic-n",
        "indefinite-k", "Indefinite-p_k", "hyperbolic-neg", "hyperbolic-n", "tensor-l",
        "Tensor-p"])
def test_a_fractional_size_is_rejected_with_its_key(make, key):
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        make()


# ------------------------------------------------------- tensor conversions

def test_tensor_embed_extract_round_trip():
    spec = op.tensor_stiefel(5, 2, 3)
    rng = np.random.default_rng(44)
    X3 = rng.standard_normal((5, 2, 3))
    Y = spec.embed_tensor(X3)
    assert Y.shape == (3, 5, 2)
    np.testing.assert_allclose(spec.extract_tensor(Y), X3, atol=1e-12)
    # a tensor-domain orthogonal factor embeds to a feasible point
    Q = spec.extract_tensor(qr_posdiag(Y)[0])
    from orthopt.manifolds import FeasiblePoint
    pt = FeasiblePoint(spec, spec.embed_tensor(Q), tol=1e-10)
    assert pt.feas <= 1e-10


# ------------------------------------------------ q as a signed permutation

Q_SPECS = [spec for spec in SPECS.values() if spec.q is not None] + [
    op.symplectic_stiefel(40, 8), op.indefinite_stiefel(120, 24, 60, 20)]
Q_IDS = [f"{spec.name}-{spec.n}x{spec.p}" for spec in Q_SPECS]


def _q_sign(q):
    return 1.0 if np.array_equal(q.T, q) else -1.0


def _dense_theta(spec, point, D):
    # theta_lstsq with the q products taken as dense products
    q = spec.q
    U = point.phiX @ q.T
    K = U.T @ U
    R = U.T @ D
    return q.T @ lyapunov_solve(K, R + _q_sign(q) * R.T)


def _dense_retract(spec, point, Z):
    # the dissolving retraction with phi taken as dense products, phi(Y) =
    # -J_2n Y q (symplectic) or A Y q (indefinite, q = J)
    left = -symplectic_j(spec.n // 2) if spec.name == "symplectic-stiefel" else spec.A
    eye, Y = np.eye(spec.p), point.X + Z
    while True:
        G = Y.T @ (left @ Y @ spec.q)
        Y = Y @ (1.5 * eye - 0.5 * G).T
        if np.linalg.norm(Y.T @ (left @ Y @ spec.q) - eye) < 1e-12:
            return Y


@pytest.mark.parametrize("spec", Q_SPECS, ids=Q_IDS)
def test_signed_permutation_equals_dense_products(spec):
    qp, q = spec.qperm, spec.q
    rng = np.random.default_rng(spec.n + spec.p)
    for _ in range(3):
        T = rng.standard_normal((spec.p, spec.p))
        Y = rng.standard_normal((spec.n, spec.p))
        for A in (T, T.T, Y):
            assert np.array_equal(qp.right_t(A), A @ q.T)
        assert np.array_equal(qp.left_t(T), q.T @ T)
        for A in (T, T.T):
            assert np.array_equal(spec.psi(A), q.T @ A @ q)
            assert np.array_equal(spec.gen_sym(A), A.T + q.T @ A @ q)


@pytest.mark.parametrize("spec", Q_SPECS, ids=Q_IDS)
def test_theta_and_retract_equal_their_dense_q_forms(spec):
    for seed in range(3):
        pt = spec.random_feasible(60 + seed)
        rng = np.random.default_rng(seed)
        for D in rng.standard_normal((2, spec.n, spec.p)):    # the second reuses the factorization
            assert np.array_equal(theta_lstsq(spec, pt, D), _dense_theta(spec, pt, D))
        Z = random_tangent(spec, pt, 70 + seed)
        Z *= 0.3 / np.linalg.norm(Z)
        assert np.array_equal(retract(spec, pt, Z).X, _dense_retract(spec, pt, Z))


@pytest.mark.parametrize("q", [
    np.array([[0.0, 2.0], [1.0, 0.0]]),                       # an entry other than +/-1
    np.array([[0.6, -0.8], [0.8, 0.6]]),                      # orthogonal, not a permutation
    np.eye(3)[[1, 2, 0]],                                     # neither symmetric nor skew
    np.eye(3)[:, :2],                                         # not square
], ids=["scaled", "rotation", "three-cycle", "not-square"])
def test_signed_permutation_rejects_other_matrices(q):
    with pytest.raises(ValueError):
        SignedPermutation(q)


def _dense_q(monkeypatch):
    # put the dense q products back in place of the signed permutation
    monkeypatch.setattr(SignedPermutation, "right_t", lambda self, T: T @ self.matrix.T)
    monkeypatch.setattr(SignedPermutation, "left_t", lambda self, T: self.matrix.T @ T)
    monkeypatch.setattr(SignedPermutation, "psi", lambda self, T: self.matrix.T @ T @ self.matrix)


def test_solves_take_the_same_iterates_with_dense_q(monkeypatch):
    prob = op.build_extrinsic_mean(20, 4, 12, 3, n_samples=20, seed=1)
    pf = op.PenaltyFunction(prob.spec, prob, 0.5)
    x0 = prob.spec.random_feasible(2)
    cfg = op.SolverConfig(grad_tol=1e-6, max_iter=5000)

    def outcomes():
        return [(r.status, r.iters, repr(r.fval))
                for r in (op.run_solver(sid, pf, x0, cfg) for sid in ("cdf-gd", "cdf-tr", "rgd"))]

    structured = outcomes()
    _dense_q(monkeypatch)
    assert outcomes() == structured
    assert all(status == "GradTol" and iters > 10 for status, iters, _ in structured)


# ------------------------------------- one normal-space factorization per point

def _uncached_theta(spec, point, D):
    # theta_lstsq through lyapunov_solve, which factors K on every call
    q = spec.qperm
    U = point.phiX if q is None else q.right_t(point.phiX)
    K = U.mT @ U
    R = U.mT @ D
    W = lyapunov_solve(K, R + (1.0 if q is None else q.sym) * R.mT)
    return W if q is None else q.left_t(W)


FACTOR_SPECS = list(SPECS.values()) + [op.tensor_stiefel(20, 3, 8)]
FACTOR_IDS = list(SPECS) + ["tensor-stiefel-20x3x8"]


@pytest.mark.parametrize("spec", FACTOR_SPECS, ids=FACTOR_IDS)
def test_theta_factors_each_point_once(spec, monkeypatch):
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(linalg_mod.np.linalg, "eigh", lambda M: calls.append(M) or eigh(M))
    pt = spec.random_feasible(21)
    D1, D2 = (spec.random_ambient(np.random.default_rng(s)) for s in (22, 23))
    Z = random_tangent(spec, spec.random_feasible(21), 24)     # at an equal point of its own
    calls.clear()
    thetas = [theta_lstsq(spec, pt, D) for D in (D1, D2, D1)]
    assert len(calls) == 1
    project_tangent(spec, pt, D2)
    vector_transport(spec, pt, D1)
    riemannian_hessvec(spec, pt, Z, D1, D2)
    assert len(calls) == 1
    for D, theta in zip((D1, D2, D1), thetas):
        assert np.array_equal(theta, _uncached_theta(spec, pt, D))
    if spec.q is not None:                  # another spec takes a point of its own at pt.X
        twin = op.stiefel(spec.n, spec.p)
        at_twin = op.EvalCache(twin, np.array(pt.X)).base()
        assert np.array_equal(theta_lstsq(twin, pt, D1), _uncached_theta(twin, at_twin, D1))
        assert np.array_equal(theta_lstsq(spec, pt, D1), thetas[0])   # its own factor is kept
    # a raw array is factored on every call, to the same bits
    calls.clear()
    for D, theta in zip((D1, D2, D1), thetas):
        assert np.array_equal(theta_lstsq(spec, pt.X, D), theta)
    assert len(calls) == 3
