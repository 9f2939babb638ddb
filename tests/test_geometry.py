import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlab import kernels
from ghlab.ansatz import FirstOrderField
from ghlab.checks import random_spd
from ghlab.glue import glue_weight_batch
from ghlab.holo import GammaSpec, gamma_family
from ghlab.locus import RegionConstants
from ghlab.quadrature import QuadratureSpec, power_kernel_integral
from ghlab.geometry import (
    BasePoint,
    IndexSet,
    QuadForm,
    anorm,
    ball_volume,
    batch_from_vectors,
    block,
    check_batch,
    gradient_step,
    laplace_terms,
    richardson_derivative,
    richardson_stencil,
    schur_blocks,
    schur_complement,
)


def spd(entries):
    return QuadForm(np.array(entries, dtype=float))


class TestQuadForm:
    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            QuadForm(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            QuadForm(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("entries", [[[math.nan]], [[1.0, math.nan], [math.nan, 1.0]],
                                         [[math.inf]]], ids=["nan", "nan-off-diagonal", "inf"])
    def test_rejects_non_finite(self, entries):
        # refused before any arithmetic: the suite turns a RuntimeWarning
        # into an error, and a NaN passes every comparison it meets
        with pytest.raises(ValueError, match="non-finite"):
            QuadForm(entries)

    def test_rejects_an_empty_matrix(self):
        # refused by name before the scale reduction, which has no identity
        # on no entries and would raise numpy's own error
        with pytest.raises(ValueError, match="quadratic form is empty"):
            QuadForm(np.zeros((0, 0)))

    def test_identity(self):
        A = QuadForm.identity(3)
        assert A.det == pytest.approx(1.0)
        assert A.condition == pytest.approx(1.0)

    def test_quad_matches_direct(self):
        A = spd([[2.0, 0.5], [0.5, 1.5]])
        x = np.array([1.0, -2.0])
        assert A.quad(x) == pytest.approx(float(x @ A.entries @ x))

    def test_inverse_is_symmetrized_once(self):
        # computed on first read, bitwise the symmetrized inverse, read-only
        # and kept: a second read returns the same array
        A = spd([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 0.9]])
        inv = np.linalg.inv(A.entries)
        assert A.inv.tobytes() == (0.5 * (inv + inv.T)).tobytes()
        assert not A.inv.flags.writeable
        assert A.inv is A.inv


def test_block_is_one_based():
    M = np.arange(1, 10, dtype=float).reshape(3, 3)
    np.testing.assert_array_equal(block(M, [1, 3], [2]), [[2.0], [8.0]])


@pytest.mark.parametrize("n, S", [(5, (1,)), (5, (2, 4)), (4, (1, 2, 3)), (3, (1, 2, 3))])
def test_stacked_schur_blocks_match_each_slice(n, S):
    # a stack (7, n, n) gathered active-first with block is bitwise its
    # slices one at a time, with an empty complement too, and each slice's
    # split is bitwise the explicit blocks: P = M_cc^-1 M_cS solved and
    # G = M_S - M_Sc P
    rng = np.random.default_rng(n + len(S))
    M = np.stack([random_spd(rng, n).entries for _ in range(7)])
    Sc = [k for k in range(1, n + 1) if k not in S]
    order = [*S, *Sc]
    P, G = schur_blocks(block(M, order, order), len(S))
    assert P.shape == (7, len(Sc), len(S)) and G.shape == (7, len(S), len(S))
    for k in range(7):
        P_k, G_k = schur_blocks(block(M[k], order, order), len(S))
        assert P[k].tobytes() == P_k.tobytes()
        assert G[k].tobytes() == G_k.tobytes()
        want_P = np.linalg.solve(block(M[k], Sc, Sc), block(M[k], Sc, S))
        assert P_k.tobytes() == want_P.tobytes()
        assert G_k.tobytes() == (block(M[k], S, S) - block(M[k], S, Sc) @ want_P).tobytes()


def test_basepoint_vector_roundtrip():
    p = BasePoint(np.array([1.0, -2.0]), 0.3 - 0.7j)
    mu, eta = batch_from_vectors(p.as_vector()[None])
    np.testing.assert_array_equal(mu[0], p.mu)
    assert eta[0] == p.eta


_QUAD = QuadratureSpec()
_GAMMA_2 = GammaSpec(QuadForm.identity(2), IndexSet((0, 1, 2)), _QUAD)
_GAMMA_3 = GammaSpec(QuadForm.identity(3), IndexSet((0, 1, 2)), _QUAD)
_FAMILY_3 = kernels._family(QuadForm.identity(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("N, call", [
    (3, lambda mu, eta: kernels.alpha_family(QuadForm.identity(3), _QUAD, mu, eta)),
    (4, lambda mu, eta: kernels.alpha_family(QuadForm.identity(4), _QUAD, mu, eta)),
    (2, lambda mu, eta: FirstOrderField(QuadForm.identity(2), _QUAD).jet(mu, eta)),
    (3, lambda mu, eta: FirstOrderField(QuadForm.identity(3), _QUAD).jet(mu, eta)),
    (2, lambda mu, eta: gamma_family(_GAMMA_2, (1, 2), mu, eta)),
    (3, lambda mu, eta: gamma_family(_GAMMA_3, (1, 2), mu, eta)),
    (3, lambda mu, eta: glue_weight_batch(QuadForm.identity(3), IndexSet((0, 1, 2)),
                                          RegionConstants(), mu, eta)),
    # the engine's own refusal, for a caller that skips check_batch
    (3, lambda mu, eta: power_kernel_integral(_FAMILY_3.Q, _FAMILY_3.c_eta, mu, eta,
                                              _FAMILY_3.M, _FAMILY_3.power, _QUAD)),
], ids=["alpha-n3", "alpha-n4", "jet-n2", "jet-n3", "gamma-n2", "gamma-n3", "glue-n3",
        "engine-n3"])
def test_non_finite_batch_rows_are_refused_by_row(N, call, bad):
    # each once ended in an UnboundLocalError or a numpy reduction error,
    # and the glue weight of a nan row read 1.0
    mu = np.full((3, N), 0.7)
    eta = np.full(3, 0.3 + 0.2j)
    mu[1, 0] = bad
    with pytest.raises(ValueError, match=r"row 1 has (non-finite entries|a sheet distance "
                                         r"that is not a number)"):
        call(mu, eta)


def test_check_batch_passes_finite_rows_whose_squares_overflow():
    # the sum of squares overflows here; the exact test then finds every
    # entry finite
    mu, eta = check_batch(np.full((2, 2), 1e200), np.full(2, -1e200j), 2)
    assert mu[1, 1] == 1e200 and eta[1] == -1e200j


@pytest.mark.parametrize("mu, eta, refused", [
    ([math.nan, 1.0], 0.5j, True),
    ([1.0, -math.inf], 0.5j, True),
    ([1.0, 2.0], complex(math.nan, 0.5), True),
    ([1.0, 2.0], complex(0.5, math.inf), True),
    ([1e200, 1e200], 1e200j, False),
], ids=["nan-mu", "inf-mu", "nan-eta", "inf-eta", "squares-overflow"])
def test_base_point_refuses_non_finite_entries(mu, eta, refused):
    # a point is checked once, at construction; its finite-entry test is
    # check_batch's, so finite entries whose squares overflow pass without
    # a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(ValueError, match="base point has non-finite entries"):
                BasePoint(np.array(mu), eta)
        else:
            p = BasePoint(np.array(mu), eta)
            assert p.mu.tolist() == mu and p.eta == eta


@pytest.mark.parametrize("mu", [[[1.0, 2.0]], 3.0, []], ids=["2-d", "scalar", "empty"])
def test_base_point_refuses_mu_of_the_wrong_shape(mu):
    # each was once accepted, and flat_field then failed in numpy's
    # concatenate, with an IndexError or on an empty reduction
    with pytest.raises(ValueError, match="base point mu is not a non-empty 1-D array"):
        BasePoint(mu, 0.5)


def test_indexset_basics():
    I = IndexSet((2, 0, 1))
    assert I.members == (0, 1, 2)
    assert I.contains_zero
    assert I.active == (1, 2)
    assert I.active_complement(4) == (3, 4)
    J = IndexSet((1, 3))
    assert not J.contains_zero
    assert J.active == (1, 3)
    with pytest.raises(ValueError):
        IndexSet((0,)).require_stratum(3)
    with pytest.raises(ValueError):
        IndexSet((0, 5)).require_stratum(3)


@pytest.mark.parametrize("h", [np.full(3, 0.1), np.array([0.1, 0.05, 0.2])],
                         ids=["scalar-step", "per-coordinate-step"])
def test_richardson_derivative_exact_on_quartics(h):
    # central differences carry only even powers of h and one Richardson
    # level cancels h^2, so degree-4 polynomials come out exact to roundoff;
    # a batch of three points sharing one step, or each with its own step
    # along all of its coordinates
    x = np.array([[0.7, -1.3, 0.4], [-0.2, 0.9, 1.1], [1.5, 0.3, -0.6]])
    rows = richardson_stencil(x, h)
    assert rows.shape == (3, 13, 3)
    np.testing.assert_array_equal(rows[:, 0], x)
    np.testing.assert_array_equal(
        rows[1, 5:9, 1], x[1, 1] + h[1] * np.array([1.0, -1.0, 0.5, -0.5]))

    def f(v):
        a, b, c = v[..., 0], v[..., 1], v[..., 2]
        return np.stack([a ** 4 - 2.0 * a * b ** 3 + c ** 2,
                         b ** 2 * c ** 2 + a * c - 3.0 * c ** 4], axis=-1)

    a, b, c = x.T
    jac = np.array([[4.0 * a ** 3 - 2.0 * b ** 3, c],
                    [-6.0 * a * b ** 2, 2.0 * b * c ** 2],
                    [2.0 * c, 2.0 * b ** 2 * c + a - 12.0 * c ** 3]]).transpose(2, 0, 1)
    got = richardson_derivative(f(rows), h)
    assert got.shape == (3, 3, 2)
    np.testing.assert_allclose(got, jac, rtol=1e-12, atol=1e-12)


@given(st.floats(0.1, 10.0), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_anorm_scales_linearly(lam, n, seed):
    # |lam p|_A = lam |p|_A; eta carries weight sqrt(det A) through the
    # norm so the fiber coordinate scales like mu
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n)
    p = BasePoint(rng.normal(size=n), complex(*rng.normal(size=2)))
    scaled = BasePoint(lam * p.mu, lam * p.eta)
    assert anorm(A, scaled) == pytest.approx(lam * anorm(A, p), rel=1e-12)


def test_anorm_identity_form():
    p = BasePoint(np.array([3.0, 4.0]), 1.0j)
    # mu part 25, eta part det(I) * 1
    assert anorm(QuadForm.identity(2), p) == pytest.approx(math.sqrt(26.0))


def test_schur_complement_frozen_example():
    A = spd([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    G = schur_complement(A, IndexSet((0, 1)))
    assert G.entries.shape == (1, 1)
    assert G.entries[0, 0] == pytest.approx(1.5)


def test_schur_complement_is_built_once_per_active_set():
    A = spd([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.1]])
    G = schur_complement(A, IndexSet((0, 2)))
    # the label 0 is dropped, so (2, 3) and (0, 2, 3) name different sets
    assert schur_complement(A, IndexSet((2,))) is G
    assert schur_complement(A, IndexSet((0, 2, 3))) is not G
    # a form with equal entries has its own cache, with equal values
    np.testing.assert_array_equal(
        schur_complement(spd(A.entries), IndexSet((0, 2))).entries, G.entries)


def test_hessian_from_analytic_gradient():
    # one differencing level on top of an analytic gradient, at the step
    # every verdict uses: exact on a quadratic up to roundoff, and symmetric
    H0 = np.array([[2.0, 1.0, 0.0, 0.5], [1.0, 4.0, -1.0, 0.0],
                   [0.0, -1.0, 6.0, 0.0], [0.5, 0.0, 0.0, -2.0]])
    x = np.array([[0.3, -0.8, 0.2, 0.9]])
    h = gradient_step(x)
    J = richardson_derivative(richardson_stencil(x, h) @ H0.T, h)[0]
    H = 0.5 * (J + J.T)
    np.testing.assert_allclose(H, H0, atol=1e-8)
    np.testing.assert_array_equal(H, H.T)


@given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_schur_eigenvalues_in_interval(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n)
    w = np.linalg.eigvalsh(A.entries)
    lam, Lam = w[0], w[-1]
    size = int(rng.integers(1, n))
    active = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size,
                                     replace=False).tolist()))
    G = schur_complement(A, IndexSet((0,) + active))
    gw = np.linalg.eigvalsh(G.entries)
    lo = lam * (lam / Lam) ** (n - 1)
    assert gw[0] >= lo - 1e-12
    assert gw[-1] <= Lam + 1e-12


def test_laplace_A_on_quadratic():
    # u = mu1^2 + mu1 mu2 + x^2 - y^2 has the constant Hessian H; the
    # operator's terms sum to its value to roundoff
    A = spd([[2.0, 0.5], [0.5, 1.5]])
    H = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, -2.0]])
    mu_terms, eta_part = laplace_terms(A, H)
    Ainv = A.inv
    want = 2.0 * Ainv[0, 0] + Ainv[0, 1] + Ainv[1, 0] + 0.0
    assert float(np.sum(mu_terms)) + eta_part == pytest.approx(want, rel=1e-14)


def test_ball_volume_known_values():
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0)
