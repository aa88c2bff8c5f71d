import numpy as np
import pytest

import orthopt as op
from orthopt.problems import (
    Problem,
    build_extrinsic_mean,
    build_lsm,
    build_tensor_jfd,
    toy_problem,
)
from orthopt.tensor import qr_posdiag


def _fd_dir(f, X, V, t=1e-5):
    return (f(X + t * V) - f(X - t * V)) / (2.0 * t)


# ------------------------------------------------------------------- generic

def test_problem_gradient_selftest_catches_bad_gradient():
    spec = op.stiefel(6, 2)
    with pytest.raises(ValueError):
        Problem(spec, lambda X, store=None: float(np.vdot(X, X)),
                lambda X, store=None: 3.0 * np.asarray(X), name="broken")


def test_problem_gradient_selftest_fails_on_nan_oracles():
    # a NaN value and gradient used to pass the central-difference check
    spec = op.stiefel(6, 2)
    with pytest.raises(ValueError, match="gradient check failed"):
        Problem(spec, lambda X, store=None: float("nan"),
                lambda X, store=None: np.full(np.shape(X), np.nan), name="nan")


def test_problem_selftest_flag(monkeypatch):
    # every problem checks its gradient on construction, the zero objective too
    checked = []
    monkeypatch.setattr(Problem, "_check_gradient", lambda self: checked.append(self.name))
    toy_problem(op.stiefel(5, 2), seed=0)
    Problem(op.stiefel(5, 2), lambda X, store=None: 0.0,
            lambda X, store=None: np.zeros_like(np.asarray(X)), name="zero")
    assert checked == ["toy", "zero"]


class CountingStore(dict):
    """A store that records every entry filled into it."""

    def __init__(self):
        super().__init__()
        self.fills = []

    def __setitem__(self, key, value):
        self.fills.append(key)
        super().__setitem__(key, value)


@pytest.mark.parametrize("build,fills", [
    (lambda: build_lsm(10, 4, seed=1), 1),                              # A X N
    (lambda: build_tensor_jfd(6, 2, 3, n_samples=3, seed=1), 1),        # DX and its row stack R
    (lambda: build_extrinsic_mean(8, 2, k=5, p_k=1, n_samples=10, seed=0), 0),
])
def test_oracles_form_their_products_once_per_point(build, fills):
    prob = build()
    rng = np.random.default_rng(5)
    X, V, W = (prob.spec.random_ambient(rng) for _ in range(3))
    store = CountingStore()
    out = [prob.f(X, store), prob.grad(X, store), prob.hessvec(X, V, store),
           prob.hessvec(X, W, store)]
    assert len(store.fills) == len(set(store.fills)) == fills
    assert out[0] == prob.f(X)
    for got, ref in zip(out[1:], [prob.grad(X), prob.hessvec(X, V), prob.hessvec(X, W)]):
        np.testing.assert_array_equal(got, ref)


BUILDER_SIZES = [
    (build_lsm, {"n": 10, "p": 4}),
    (build_tensor_jfd, {"n": 6, "p": 2, "l": 3, "n_samples": 3}),
    (build_extrinsic_mean, {"n": 15, "p": 3, "k": 9, "p_k": 2, "n_samples": 10}),
]
SIZE_KEYS = ("n", "p", "k", "p_k", "l")


@pytest.mark.parametrize("build,sizes", BUILDER_SIZES, ids=[b.__name__ for b, _ in BUILDER_SIZES])
def test_builders_take_integral_floats_as_sizes(build, sizes):
    # the sizes are read back from the checked spec, so an integral float
    # builds the same problem as the int and is recorded as an int
    prob = build(**sizes)
    clone = build(**{k: float(v) if k in SIZE_KEYS else v for k, v in sizes.items()})
    for key in SIZE_KEYS:
        if key in sizes:
            assert type(clone.metadata[key]) is int and clone.metadata[key] == sizes[key]
    assert clone.metadata == prob.metadata
    X = prob.spec.random_feasible(2).X
    V = prob.spec.random_ambient(np.random.default_rng(3))
    assert clone.f(X) == prob.f(X)
    np.testing.assert_array_equal(clone.grad(X), prob.grad(X))
    np.testing.assert_array_equal(clone.hessvec(X, V), prob.hessvec(X, V))


def test_problems_sharing_a_point_keep_their_own_entries():
    # a FeasiblePoint is a point of the manifold, not of one objective
    one, two = build_lsm(10, 4, seed=1), build_lsm(10, 4, seed=2)
    point = one.spec.random_feasible(0)
    assert one.f(point.X, point.store) == one.f(point.X)
    assert two.f(point.X, point.store) == two.f(point.X)
    np.testing.assert_array_equal(one.grad(point.X, point.store), one.grad(point.X))


# ----------------------------------------------------------------------- lsm

def dense_lsm_A(prob):
    """The dense A = U diag(a^(1-i) + b) U^T that build_lsm defines, with U
    the full QR factor of the seed's n x n Gaussian and a, b read from the
    problem's metadata."""
    meta = prob.metadata
    n = meta["n"]
    U, _ = qr_posdiag(np.random.default_rng(meta["seed"]).standard_normal((n, n)))
    lam = meta["a"] ** (1.0 - np.arange(1.0, n + 1.0)) + meta["b"]
    return (U * lam) @ U.T


def test_lsm_objective_formula_and_data_shapes():
    prob = build_lsm(12, 4, seed=0)
    assert prob.spec.name == "symplectic-stiefel"
    A = dense_lsm_A(prob)
    lam = np.linalg.eigvalsh(A)
    assert lam.min() > 0
    assert np.all(np.diff(prob.N_diag) < 0)
    X = prob.spec.random_ambient(np.random.default_rng(0))
    np.testing.assert_allclose(prob.f(X), np.vdot(X, A @ X @ np.diag(prob.N_diag)),
                               rtol=1e-12)
    assert prob.f(np.zeros((12, 4))) == 0.0


def test_lsm_gradient_and_hessvec():
    prob = build_lsm(10, 4, seed=1)
    rng = np.random.default_rng(1)
    X = prob.spec.random_feasible(2).X
    V = rng.standard_normal((10, 4))
    V /= np.linalg.norm(V)
    fd = _fd_dir(prob.f, X, V)
    assert abs(fd - np.vdot(prob.grad(X), V)) <= 1e-6 * max(1.0, abs(fd))
    hv = prob.hessvec(X, V)
    fd_h = (prob.grad(X + 1e-5 * V) - prob.grad(X - 1e-5 * V)) / 2e-5
    np.testing.assert_allclose(hv, fd_h, atol=1e-7)


def test_lsm_value_is_the_closed_form_of_its_gradient_bit_for_bit():
    # the value and the gradient read one product A X N from the point's
    # store and doubling is exact, so the value is <X, g / 2> to the last bit
    prob = build_lsm(10, 4, seed=1)
    X = prob.spec.random_ambient(np.random.default_rng(3))
    store = {}
    v, g = prob.f(X, store), prob.grad(X, store)
    assert v == float(np.vdot(X, g / 2.0))


def test_lsm_oracles_agree_with_the_A_X_forms_at_scale():
    # the oracles apply A by its factors, b X + U_r (d * (U_r^T X)), with
    # the terms below eps b dropped; against the dense A of the full QR
    # factor they need agree to rounding only
    for (n, p, kw), rng_seed in [((1000, 20, dict(seed=5, a=200.0, b=0.05)), 5),
                                 ((10, 4, dict(seed=1)), 3)]:
        prob = build_lsm(n, p, **kw)
        A = dense_lsm_A(prob)
        rng = np.random.default_rng(rng_seed)
        X, V = prob.spec.random_ambient(rng), prob.spec.random_ambient(rng)
        mu = prob.N_diag
        store = {}
        v, g = prob.f(X, store), prob.grad(X, store)
        AXN = A @ X * mu
        ref_v = float(np.vdot(X, AXN))
        assert abs(v - ref_v) <= 1e-13 * abs(ref_v)
        assert np.linalg.norm(g - 2.0 * AXN) <= 1e-13 * np.linalg.norm(2.0 * AXN)
        ref_hv = 2.0 * (A @ V) * mu
        assert np.linalg.norm(prob.hessvec(X, V) - ref_hv) <= 1e-13 * np.linalg.norm(ref_hv)


def test_lsm_AN_is_the_broadcast_formula_bit_for_bit():
    # A X N = U ((U^T X) * d mu^T) + X * (b mu), b mu broadcast over the rows
    prob = build_lsm(1000, 20, seed=5, a=200.0, b=0.05)
    U, d, mu, b = prob.U, prob.d, prob.N_diag, prob.metadata["b"]
    rng = np.random.default_rng(4)
    X, V = prob.spec.random_ambient(rng), prob.spec.random_ambient(rng)
    AN = U @ ((U.T @ X) * np.outer(d, mu)) + X * (b * mu)
    np.testing.assert_array_equal(prob.grad(X), 2.0 * AN)
    AV = U @ ((U.T @ V) * np.outer(d, mu)) + V * (b * mu)
    np.testing.assert_array_equal(prob.hessvec(X, V), 2.0 * AV)


def test_lsm_explicit_spectrum_override():
    prob = build_lsm(10, 4, seed=0, a=50.0, b=0.1)
    assert prob.metadata["a"] == 50.0 and prob.metadata["b"] == 0.1
    lam = np.sort(np.linalg.eigvalsh(dense_lsm_A(prob)))[::-1]
    np.testing.assert_allclose(lam[0], 1.1, atol=1e-10)
    np.testing.assert_allclose(prob.d, lam[:prob.d.size] - 0.1, atol=1e-10)


def test_lsm_rank_rule_drops_only_terms_below_eps_b():
    # at a = 200, b = 0.05, A is b I plus a rank-8 part to rounding: the
    # ninth term 200^-8 is the first at or below eps b
    prob = build_lsm(1000, 20, seed=0, a=200.0, b=0.05)
    assert prob.U.shape == (1000, 8)
    np.testing.assert_array_equal(prob.d, 200.0 ** -np.arange(8.0))
    assert 200.0 ** -8.0 <= np.finfo(float).eps * 0.05 < prob.d[-1]
    np.testing.assert_allclose(prob.U.T @ prob.U, np.eye(8), rtol=0.0, atol=1e-14)


def test_lsm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_lsm(11, 4, seed=0)
    with pytest.raises(ValueError, match="^n must be an integer"):
        build_lsm(10.5, 4, seed=0)
    with pytest.raises(ValueError):
        build_lsm(10, 4, seed=0, a=0.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build,key", [
    (lambda: build_lsm(10, 4, a=NAN), "a"),
    (lambda: build_lsm(10, 4, a=INF), "a"),
    (lambda: build_lsm(10, 4, b=NAN), "b"),
    (lambda: build_lsm(10, 4, b=INF), "b"),
    (lambda: build_tensor_jfd(5, 2, 2, n_samples=2, gamma=NAN), "gamma"),
    (lambda: build_tensor_jfd(5, 2, 2, n_samples=2, gamma=INF), "gamma"),
    (lambda: build_tensor_jfd(5, 2, 2, n_samples=0), "n_samples"),
    (lambda: build_tensor_jfd(5, 2, 2, n_samples=1.5), "n_samples"),
    (lambda: build_extrinsic_mean(8, 2, k=5, p_k=1, n_samples=0), "n_samples"),
    (lambda: build_extrinsic_mean(8, 2, k=5, p_k=1, n_samples=NAN), "n_samples"),
], ids=["lsm-a-nan", "lsm-a-inf", "lsm-b-nan", "lsm-b-inf", "tjfd-gamma-nan", "tjfd-gamma-inf",
        "tjfd-no-samples", "tjfd-fractional-samples", "extrinsic-no-samples",
        "extrinsic-nan-samples"])
def test_builders_reject_nan_inf_or_zero_parameters_naming_the_key(build, key):
    # each used to build a problem: with another spectrum (a), a NaN or
    # constant objective (b, n_samples = 0), or the noise dropped (gamma)
    with pytest.raises(ValueError, match=f"^{key} must be"):
        build()


def test_lsm_deterministic_per_seed():
    p1 = build_lsm(10, 4, seed=7)
    p2 = build_lsm(10, 4, seed=7)
    np.testing.assert_array_equal(p1.U, p2.U)
    np.testing.assert_array_equal(p1.d, p2.d)
    assert p1.metadata["a"] == p2.metadata["a"]
    # the factors are the seed's dense A, with b I and the kept terms
    b = p1.metadata["b"]
    np.testing.assert_allclose(b * np.eye(10) + (p1.U * p1.d) @ p1.U.T, dense_lsm_A(p1),
                               rtol=0.0, atol=1e-14)


# ------------------------------------------------------------ extrinsic mean

def test_extrinsic_mean_samples_are_feasible():
    prob = build_extrinsic_mean(20, 4, k=12, p_k=3, n_samples=100, seed=0)
    spec = prob.spec
    for X in prob.samples:
        resid = np.linalg.norm(X.T @ spec.phi(X) - np.eye(4))
        assert resid <= 1e-10


def test_extrinsic_mean_objective_zero_at_mean():
    prob = build_extrinsic_mean(15, 3, k=9, p_k=2, n_samples=20, seed=1)
    assert prob.f(prob.mean) == 0.0
    np.testing.assert_allclose(prob.grad(prob.mean), 0.0)


def test_extrinsic_mean_average_leaves_the_manifold():
    prob = build_extrinsic_mean(15, 3, k=9, p_k=2, n_samples=20, seed=1)
    spec = prob.spec
    resid = np.linalg.norm(prob.mean.T @ spec.phi(prob.mean) - np.eye(3))
    assert resid > 1e-3


def test_extrinsic_mean_single_sample_mean_is_feasible():
    prob = build_extrinsic_mean(15, 3, k=9, p_k=2, n_samples=1, seed=2)
    spec = prob.spec
    resid = np.linalg.norm(prob.mean.T @ spec.phi(prob.mean) - np.eye(3))
    assert resid <= 1e-10
    assert prob.f(prob.samples[0]) == 0.0


def test_extrinsic_mean_gradient_fd():
    prob = build_extrinsic_mean(12, 3, k=7, p_k=2, n_samples=10, seed=3)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 3))
    V = rng.standard_normal((12, 3))
    V /= np.linalg.norm(V)
    fd = _fd_dir(prob.f, X, V)
    assert abs(fd - np.vdot(prob.grad(X), V)) <= 1e-6 * max(1.0, abs(fd))


def test_extrinsic_mean_rejects_bad_blocks():
    with pytest.raises(ValueError):
        build_extrinsic_mean(10, 4, k=2, p_k=3, n_samples=5, seed=0)


def test_extrinsic_mean_deterministic():
    p1 = build_extrinsic_mean(12, 3, k=7, p_k=2, n_samples=5, seed=9)
    p2 = build_extrinsic_mean(12, 3, k=7, p_k=2, n_samples=5, seed=9)
    np.testing.assert_array_equal(p1.samples, p2.samples)


def _reference_samples(n, p, k, p_k, n_samples, seed):
    # the samples by a per-sample loop, the reference for the stacked
    # build: one QR per block per sample, one product per sample
    spec = op.indefinite_stiefel(n, p, k, p_k)
    seed_y0, seed_w = np.random.SeedSequence(seed).spawn(2)
    Y0 = spec.random_feasible(seed_y0).X
    rng = np.random.default_rng(seed_w)
    samples = np.empty((n_samples, n, p))
    W = np.zeros((p, p))
    for i in range(n_samples):
        if p_k:
            W[:p_k, :p_k] = qr_posdiag(rng.standard_normal((p_k, p_k)))[0]
        if p - p_k:
            W[p_k:, p_k:] = qr_posdiag(rng.standard_normal((p - p_k, p - p_k)))[0]
        samples[i] = Y0 @ W
    return samples


@pytest.mark.parametrize("args", [
    (30, 5, 12, 0, 7, 3),
    (30, 5, 12, 5, 7, 4),
    (30, 5, 12, 3, 1, 5),
    (120, 24, 60, 12, 100, 0),
], ids=["pk-zero", "pm-zero", "one-sample", "indef-size"])
def test_extrinsic_mean_samples_equal_the_per_sample_qr_loop_bit_for_bit(args):
    n, p, k, p_k, n_samples, seed = args
    prob = build_extrinsic_mean(n, p, k=k, p_k=p_k, n_samples=n_samples, seed=seed)
    assert np.array_equal(prob.samples, _reference_samples(*args))


def test_extrinsic_mean_writes_its_samples_in_place(traced_peak):
    # next to the samples live at most the W stack (p/n = 0.2 of them here),
    # the draws (0.1) and one stacked QR's work; a temporary product or a
    # copy of the samples would add a whole samples array
    def build():
        return build_extrinsic_mean(120, 24, k=60, p_k=12, n_samples=100)

    samples_bytes = build().samples.nbytes      # also loads what a first call loads
    assert traced_peak(build) <= 1.6 * samples_bytes


@pytest.mark.parametrize("scale", [1.0 + 1e-6, np.nan], ids=["off-manifold", "nan"])
def test_extrinsic_mean_rejects_a_sample_off_the_manifold(monkeypatch, scale):
    # sample 37's p_m x p_m block leaves the orthogonal group, so its sample
    # leaves the manifold; the check, 11 samples to a block at this size,
    # names it
    calls = []

    def qr_spoiling_sample_37(M):
        Q, R = qr_posdiag(M)
        calls.append(1)
        if len(calls) == 2:
            Q[37] *= scale
        return Q, R

    monkeypatch.setattr(op.problems, "qr_posdiag", qr_spoiling_sample_37)
    with pytest.raises(op.FeasibilityError, match="^sample 37: constraint residual"):
        build_extrinsic_mean(120, 24, k=60, p_k=12, n_samples=60, seed=0)
    assert len(calls) == 2


# ----------------------------------------------------------------- tensor jfd

def test_tensor_jfd_noiseless_exact_diagonalizer():
    prob = build_tensor_jfd(8, 2, 3, n_samples=4, gamma=0.0, seed=0)
    assert prob.f(prob.exact_point.X) <= 1e-20


def test_tensor_jfd_matrix_case_permuted_diagonalizer():
    prob = build_tensor_jfd(6, 2, 1, n_samples=1, gamma=0.0, seed=1)
    U = prob.exact_point.X
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert prob.f(U @ P) <= 1e-20


def test_tensor_jfd_gradient_fd_at_feasible_point():
    prob = build_tensor_jfd(6, 2, 3, n_samples=3, gamma=0.5, seed=2)
    spec = prob.spec
    X = spec.random_feasible(4).X
    rng = np.random.default_rng(5)
    V = spec.random_ambient(rng)
    V /= np.linalg.norm(V)
    fd = _fd_dir(prob.f, X, V)
    assert abs(fd - np.vdot(prob.grad(X), V)) <= 1e-6 * max(1.0, abs(fd))


def test_tensor_jfd_hessvec_fd():
    prob = build_tensor_jfd(5, 2, 2, n_samples=2, gamma=0.3, seed=3)
    spec = prob.spec
    X = spec.random_feasible(6).X
    V = spec.random_ambient(np.random.default_rng(7))
    V /= np.linalg.norm(V)
    fd = (prob.grad(X + 1e-5 * V) - prob.grad(X - 1e-5 * V)) / 2e-5
    np.testing.assert_allclose(prob.hessvec(X, V), fd, atol=1e-5)


def test_tensor_jfd_noise_is_unit_normalized():
    clean = build_tensor_jfd(6, 2, 2, n_samples=3, gamma=0.0, seed=4)
    noisy = build_tensor_jfd(6, 2, 2, n_samples=3, gamma=0.7, seed=4)
    for D0, D1 in zip(clean.sample_mats, noisy.sample_mats):
        np.testing.assert_allclose(np.linalg.norm(D1 - D0), 0.7, rtol=1e-12)


def test_tensor_jfd_data_in_subspace():
    # samples, points and gradients are stacks of transform-domain faces
    prob = build_tensor_jfd(5, 2, 3, n_samples=2, gamma=0.5, seed=5)
    spec = prob.spec
    X = spec.random_feasible(8).X
    assert prob.sample_mats.shape == (2, 3, 5, 5)
    assert X.shape == prob.grad(X).shape == (3, 5, 2)


def test_tensor_jfd_rejects_negative_noise():
    with pytest.raises(ValueError):
        build_tensor_jfd(5, 2, 2, n_samples=2, gamma=-0.1, seed=0)


def test_tensor_jfd_deterministic():
    p1 = build_tensor_jfd(5, 2, 2, n_samples=3, gamma=0.5, seed=11)
    p2 = build_tensor_jfd(5, 2, 2, n_samples=3, gamma=0.5, seed=11)
    np.testing.assert_array_equal(p1.sample_mats, p2.sample_mats)


def _reference_tensor_jfd(n, p, l, n_samples, gamma, seed):
    """The per-sample draw and oracles of the tensor-JFD objective: one
    product per sample and face, then a sum over the samples.  The reference
    for the stacked operator of ``build_tensor_jfd``."""
    spec = op.tensor_stiefel(n, p, l)
    seed_u, seed_d = np.random.SeedSequence(seed).spawn(2)
    U = spec.random_feasible(seed_u).X
    rng = np.random.default_rng(seed_d)
    mats = np.empty((n_samples, l, n, n))
    for i in range(n_samples):
        core = rng.standard_normal((l, 1, p))
        mats[i] = (U * core) @ U.mT
        noise = rng.standard_normal((l, n, n))
        if gamma > 0:
            mats[i] += gamma * noise / np.linalg.norm(noise)
    offdiag = 1.0 - np.eye(p)

    def f(X):
        O = (X.mT @ mats @ X) * offdiag
        return float(np.vdot(O, O))

    def grad(X):
        DX = mats @ X
        O = (X.mT @ DX) * offdiag
        return 2.0 * (mats.mT @ X @ O + DX @ O.mT).sum(axis=0)

    def hessvec(X, V):
        DX, DV = mats @ X, mats @ V
        O = (X.mT @ DX) * offdiag
        Od = (V.mT @ DX + X.mT @ DV) * offdiag
        return 2.0 * (mats.mT @ V @ O + mats.mT @ X @ Od + DV @ O.mT + DX @ Od.mT).sum(axis=0)

    return mats, f, grad, hessvec


def _assert_rel(got, ref, rtol=1e-13):
    assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


@pytest.mark.parametrize("n,p,l,n_samples", [(20, 3, 8, 5), (5, 1, 2, 1), (6, 2, 1, 3)],
                         ids=["tjfd-size", "p-one", "one-face"])
def test_tensor_jfd_stacked_oracles_match_the_per_sample_reference(n, p, l, n_samples):
    prob = build_tensor_jfd(n, p, l, n_samples=n_samples, gamma=0.5, seed=3)
    mats, f, grad, hessvec = _reference_tensor_jfd(n, p, l, n_samples, 0.5, 3)
    # the same draw, bit for bit, as a read-only view
    assert prob.sample_mats.shape == (n_samples, l, n, n)
    assert np.array_equal(prob.sample_mats, mats)
    assert not prob.sample_mats.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        prob.sample_mats[0, 0, 0, 0] = 1.0
    rng = np.random.default_rng(4)
    X = prob.spec.random_feasible(5).X + 0.1 * rng.standard_normal((l, n, p))
    V, W = rng.standard_normal((2, l, n, p))
    store = {}
    for st in (None, store, store):     # afresh, filling the store, from it
        assert abs(prob.f(X, st) - f(X)) <= 1e-13 * f(X)
        _assert_rel(prob.grad(X, st), grad(X))
        _assert_rel(prob.hessvec(X, V, st), hessvec(X, V))
        _assert_rel(prob.hessvec(X, W, st), hessvec(X, W))
    assert len(store) == 1
