import numpy as np
import pytest

import orthopt as op
from orthopt.diagnostics import desk_specs
from orthopt.manifolds import (
    FeasibilityError,
    FeasiblePoint,
    RetractError,
    SubspaceError,
    ThetaDegenerateError,
    _j_left,
    _j_right,
    constraint,
    project_tangent,
    random_tangent,
    riemannian_gradient,
    riemannian_hessvec,
    spec_from_record,
    tangent_test,
    theta_lstsq,
    vector_transport,
)

SPECS = desk_specs()


@pytest.fixture(params=SPECS, ids=[s.name for s in SPECS])
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
    assert np.linalg.norm(pt.X.T @ spec.Jn @ pt.X - spec.Jp) < 1e-12
    np.testing.assert_allclose(constraint(spec, pt.X), 0.0, atol=1e-12)


@pytest.mark.parametrize("n2,p2", [(2, 2), (8, 2), (16, 8), (1000, 20)])
def test_symplectic_phi_swap_equals_dense_product(n2, p2):
    spec = op.symplectic_stiefel(n2, p2)
    X = np.random.default_rng(n2 + p2).standard_normal((n2, p2))
    assert np.array_equal(spec.phi(X), -spec.Jn @ X @ spec.Jp)


def test_symplectic_swaps_equal_dense_j_products():
    spec = op.symplectic_stiefel(12, 4)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 4))
    S = rng.standard_normal((12, 12))
    assert np.array_equal(_j_left(X), spec.Jn @ X)
    assert np.array_equal(_j_right(X), X @ spec.Jp)
    assert np.array_equal(_j_right(S), S @ spec.Jn)


def test_constraint_scaled_column():
    spec = op.stiefel(2, 1)
    np.testing.assert_allclose(constraint(spec, np.array([[2.0], [0.0]])), [[3.0]])


def test_constraint_rejects_subspace_violation():
    spec = op.tensor_stiefel(3, 2, 2)
    Y = np.ones((6, 4))
    with pytest.raises(SubspaceError):
        constraint(spec, Y)


def test_feasible_point_rejects_bad_matrix(spec):
    X = spec.random_feasible(0).X * 1.5
    with pytest.raises(FeasibilityError):
        FeasiblePoint(spec, X, tol=1e-8)


# ----------------------------------------------------------------- gen_sym

def test_gen_sym_doubles_symmetric_on_identity_psi():
    spec = op.stiefel(6, 3)
    T = np.random.default_rng(0).standard_normal((3, 3))
    T = T + T.T
    np.testing.assert_allclose(op.gen_sym(spec, T), 2.0 * T)


def test_gen_sym_signature_matrix_doubles():
    spec = op.indefinite_stiefel(9, 3, k=5, p_k=2)
    np.testing.assert_allclose(op.gen_sym(spec, spec.J), 2.0 * spec.J)


def test_gen_sym_lands_in_s1_span(spec):
    rng = np.random.default_rng(1)
    basis = spec.s1_basis()
    for _ in range(5):
        T = spec.random_gram(rng)
        S = op.gen_sym(spec, T)
        coords = np.tensordot(basis, S, axes=([1, 2], [0, 1]))
        recon = np.tensordot(coords, basis, axes=(0, 0))
        assert np.linalg.norm(recon - S) <= 1e-12 * max(np.linalg.norm(S), 1.0)


def test_s1_basis_orthonormal(spec):
    B = spec.s1_basis()
    G = np.tensordot(B, B, axes=([1, 2], [1, 2]))
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


def test_theta_tensor_ignores_mass_outside_subspace(theta_oracle):
    spec = op.tensor_stiefel(4, 2, 3)
    pt = spec.random_feasible(31)
    D = np.random.default_rng(31).standard_normal((spec.n, spec.p))
    assert spec.subspace_residual(D) > 1.0
    S = theta_lstsq(spec, pt, D)
    np.testing.assert_array_equal(S, theta_lstsq(spec, pt, spec.project_subspace(D)))
    S_ref, _ = theta_oracle(spec, pt.phiX, D)
    assert np.linalg.norm(S - S_ref) <= 1e-10 * np.linalg.norm(S_ref)


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

def _subspace_basis(spec):
    basis = []
    for i in range(spec.n):
        for j in range(spec.p):
            E = np.zeros((spec.n, spec.p))
            E[i, j] = 1.0
            P = spec.project_subspace(E)
            if np.linalg.norm(P) > 0.5:
                basis.append(P)
    return basis


def test_constraint_jacobian_rank_matches_s1_dimension(spec):
    pt = spec.random_feasible(29)
    rows = [(pt.X.T @ spec.phi(B) + B.T @ pt.phiX).ravel() for B in _subspace_basis(spec)]
    rank = np.linalg.matrix_rank(np.stack(rows), tol=1e-8)
    assert rank == spec.s1_basis().shape[0]


# ------------------------------------------------------------- serialization

def test_spec_record_round_trip(spec):
    if spec.name == "generalized-stiefel" and spec.seed is None:
        pytest.skip("custom matrix not serializable")
    rec = spec.record()
    clone = spec_from_record({k: str(v) for k, v in rec.items()})
    X = spec.random_feasible(1).X
    np.testing.assert_allclose(clone.phi(X), spec.phi(X), atol=1e-14)
    np.testing.assert_array_equal(clone.random_feasible(5).X, spec.random_feasible(5).X)


def test_spec_record_rejects_custom_indefinite_A():
    rng = np.random.default_rng(45)
    Q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    A = (Q * np.array([3.0, 2.0, 1.5, 1.0, 0.5, -1.0, -2.0, -3.0, -4.0])) @ Q.T
    spec = op.indefinite_stiefel(9, 3, k=5, p_k=2, A=A)
    with pytest.raises(ValueError):
        spec.record()


def test_spec_record_rejects_unknown_name():
    with pytest.raises(ValueError):
        spec_from_record({"name": "moebius", "n": 3, "p": 1})


# ------------------------------------------------------- tensor conversions

def test_tensor_embed_extract_round_trip():
    from orthopt.tensor import tqr
    spec = op.tensor_stiefel(5, 2, 3)
    rng = np.random.default_rng(44)
    X3 = rng.standard_normal((5, 2, 3))
    Y = spec.embed_tensor(X3)
    assert spec.subspace_residual(Y) == 0.0
    np.testing.assert_allclose(spec.extract_tensor(Y), X3, atol=1e-12)
    # a tensor-domain orthogonal factor embeds to a feasible point
    Q, _ = tqr(X3, spec.transform)
    from orthopt.manifolds import FeasiblePoint
    pt = FeasiblePoint(spec, spec.embed_tensor(Q), tol=1e-10)
    assert pt.feas <= 1e-10
