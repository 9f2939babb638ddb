
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlab.checks import random_spd
from ghlab.geometry import BasePoint, IndexSet, QuadForm
from ghlab.ansatz import (
    FirstOrderField,
    Ray,
    RestrictedField,
    flat_field,
    restricted_remainders,
    sigma_expansion,
    weight_ell,
)
from ghlab.locus import all_strata, dist_closed_stratum
from ghlab.quadrature import QuadratureSpec, panel_nodes

QUAD = QuadratureSpec()


class TestFlatModel:
    def test_frozen_symmetric_point(self):
        res = flat_field(BasePoint(np.zeros(2), 1.0 + 0j))
        np.testing.assert_allclose(res.V_inv, [[2.0, 1.0], [1.0, 2.0]],
                                   atol=1e-12)
        assert res.W == pytest.approx(1.0 / 3.0)
        assert not res.on_locus

    def test_zero_fiber_coordinate(self):
        # eta = 0 with positive moduli: the free variable sits at its
        # lower bound and the inverse potential is diagonal
        res = flat_field(BasePoint(np.array([1.5, 1.5]), 0j))
        assert res.x == 0.0
        assert res.W == pytest.approx(1.0 / 9.0)
        assert not res.on_locus

    def test_on_locus_detection(self):
        res = flat_field(BasePoint(np.array([0.0, 1.0]), 0j))
        assert res.on_locus

    @given(st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_volume_identity(self, N, seed):
        # det V = W algebraically for every admissible x, so to solver
        # accuracy for the root actually found
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-2, 2, N)
        eta = complex(*rng.normal(size=2))
        res = flat_field(BasePoint(mu, eta))
        det_v = 1.0 / float(np.linalg.det(res.V_inv))
        assert abs(det_v - res.W) <= 1e-9 * max(1.0, abs(res.W))

    def test_defining_polynomial(self):
        p = BasePoint(np.array([0.7, -0.3, 0.2]), 0.9 + 0.4j)
        res = flat_field(p)
        lhs = res.x * float(np.prod(res.x + 2.0 * p.mu))
        assert lhs == pytest.approx(abs(p.eta) ** 2, rel=1e-12)

    def test_moduli_squares_consistent(self):
        p = BasePoint(np.array([0.7, -0.3]), 1.1 - 0.2j)
        res = flat_field(p)
        # |z_0|^2 = x, |z_i|^2 = x + 2 mu_i, and the product carries |eta|^2
        assert res.z_squared[0] == pytest.approx(res.x)
        np.testing.assert_allclose(res.z_squared[1:], res.x + 2.0 * p.mu,
                                   rtol=1e-13)


def _at(fld, p, want_gradient=False):
    """The field's jet at one point: a batch of one."""
    return fld.jet(p.mu[None], np.array([p.eta]), want_gradient)


def test_first_order_field_basic():
    rng = np.random.default_rng(3)
    A = random_spd(rng, 2)
    fld = FirstOrderField(A, QUAD)
    p = BasePoint(np.array([0.9, -0.6]), 0.7 + 0.2j)
    jet = _at(fld, p, want_gradient=True)
    assert np.linalg.eigvalsh(jet.V[0])[0] > 0.0 and jet.W[0] > 0.0
    assert jet.quad_error[0] <= max(QUAD.abs_tol,
                                    QUAD.rel_tol * float(np.max(np.abs(jet.v[0]))))
    # V = A + v with v symmetric positive; W = det A (1 + tr(A^{-1} v))
    v = jet.V[0] - A.entries
    np.testing.assert_allclose(v, v.T, atol=1e-12)
    want_w = A.det * (1.0 + float(np.sum(A.inv * v)))
    assert jet.W[0] == pytest.approx(want_w, rel=1e-12)


def test_restricted_field_ignores_complement():
    rng = np.random.default_rng(11)
    A = random_spd(rng, 3)
    fld = RestrictedField(A, IndexSet((0, 1)), QUAD)
    p1 = BasePoint(np.array([0.8, 0.3, -0.5]), 0.6 + 0.1j)
    p2 = BasePoint(np.array([0.8, 4.0, 2.0]), 0.6 + 0.1j)
    j1, j2 = _at(fld, p1), _at(fld, p2)
    np.testing.assert_allclose(j1.V, j2.V, rtol=1e-11)
    assert j1.W[0] == pytest.approx(j2.W[0], rel=1e-11)


def test_jet_quad_error_is_each_points_own():
    # N = 4 kernels sweep (d = 3) and carry nonzero error estimates; two
    # far-apart points jetted together each read the error they read alone
    rng = np.random.default_rng(41)
    fld = FirstOrderField(random_spd(rng, 4), QuadratureSpec(abs_tol=1e-11))
    pts = [BasePoint(np.array([0.6, -0.4, 0.9, 0.3]), 0.7 + 0.2j),
           BasePoint(np.array([6.0, 5.0, -4.0, 7.0]), 3.0 - 1.0j)]
    jet = fld.jet(np.array([p.mu for p in pts]),
                  np.array([p.eta for p in pts]), want_gradient=False)
    alone = [_at(fld, p).quad_error[0] for p in pts]
    assert alone[0] != alone[1]
    assert jet.quad_error.tolist() == alone


def _leg_nodes(q0, q1):
    """Gauss nodes (mu, eta) of a path leg, laid out as log_z lays them
    out: 8 panels of 16 nodes."""
    ss, _ = panel_nodes(np.arange(9) / 8, 16)
    return q0.mu + ss[:, None] * (q1.mu - q0.mu), q0.eta + ss * (q1.eta - q0.eta)


@pytest.mark.parametrize("N, members", [(2, (0, 1)), (2, (0, 1, 2)),
                                        (3, (0, 1, 2, 3)), (4, (0, 1, 2, 3, 4))])
def test_leg_jet_matches_pointwise(N, members, monkeypatch):
    # one batched jet over a whole constant-eta leg equals a jet per node,
    # and the whole family takes the leg in one engine call; up to N = 3
    # every kernel is a closed form and nothing is swept; at N = 4 every
    # kernel sweeps (d = 3), so each kernel splits the leg into groups that
    # each sweep on their own first row's grid
    import ghlab.kernels as kernels
    import ghlab.quadrature as quadrature

    rng = np.random.default_rng(31 + N)
    A = random_spd(rng, N)
    fld = RestrictedField(A, IndexSet(members), QuadratureSpec(abs_tol=1e-11))
    q1 = BasePoint(rng.uniform(-1.0, 1.0, N), 0.8 + 0.3j)
    q0 = BasePoint(q1.mu + 2.5, q1.eta)
    mu, eta = _leg_nodes(q0, q1)
    calls, sweeps = [], []
    engine, sweep = kernels.power_kernel_integral, quadrature._sweep_group
    monkeypatch.setattr(kernels, "power_kernel_integral",
                        lambda *a, **k: calls.append(1) or engine(*a, **k))
    monkeypatch.setattr(quadrature, "_sweep_group",
                        lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    jet = fld.jet(mu, eta, want_gradient=False)
    monkeypatch.undo()
    live = 1 if members == (0, 1) else len(members) * (len(members) - 1) // 2
    assert len(calls) == 1
    if N == 4:
        assert live < len(sweeps) < live * len(mu)
    else:
        assert not sweeps
    for t, (m, e) in enumerate(zip(mu, eta)):
        want = _at(fld, BasePoint(m, e))
        np.testing.assert_allclose(jet.v[t], want.v[0], rtol=1e-15,
                                   atol=1e-15 * float(np.max(np.abs(want.v))))
        assert jet.w[t] == pytest.approx(want.w[0], rel=1e-15)


def test_restricted_remainders_small_near_stratum():
    rng = np.random.default_rng(13)
    A = random_spd(rng, 3)
    I = IndexSet((0, 1))
    # close to the stratum of I, far from the others: the remainder is
    # controlled by the other strata and stays modest
    p_near = BasePoint(np.array([0.05, 3.0, 3.0]), 0.05 + 0.02j)
    h_v, h_w = restricted_remainders(A, I, QUAD, p_near)
    p_far = BasePoint(np.array([0.05, 0.4, 0.4]), 0.05 + 0.02j)
    g_v, g_w = restricted_remainders(A, I, QUAD, p_far)
    assert float(np.max(np.abs(h_v))) < float(np.max(np.abs(g_v)))


class TestSigmaExpansion:
    def test_two_routes_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            N = int(rng.integers(1, 5))
            A = random_spd(rng, N)
            root = rng.normal(size=(N, N)) * 0.1
            v = root @ root.T
            se = sigma_expansion(A, v)
            assert se.relative_error == pytest.approx(
                se.relative_error_det_route, abs=1e-12)
            assert se.det_identity_gap < 1e-12

    def test_one_dimensional_tail_vanishes(self):
        # a single eigenvalue leaves nothing beyond first order
        A = QuadForm(np.array([[1.7]]))
        se = sigma_expansion(A, np.array([[0.4]]))
        assert se.relative_error == pytest.approx(0.0, abs=1e-15)

    def test_sigma1_is_trace_term(self):
        A = QuadForm(np.array([[2.0, 0.0], [0.0, 1.0]]))
        v = np.array([[0.2, 0.0], [0.0, 0.3]])
        se = sigma_expansion(A, v)
        assert se.sigmas[0] == pytest.approx(0.1 + 0.3)
        assert se.sigmas[1] == pytest.approx(0.1 * 0.3)


def test_decay_scan_smoke():
    # short two-point scan: the fitted exponent of the relative error is
    # near 2 along a generic ray (full scan lives in the acceptance suite)
    A = QuadForm.identity(2)
    ray = Ray(np.array([1.0, 0.7]), base_eta=0.5 + 0.2j)
    from ghlab.ansatz import decay_scan
    fit = decay_scan(A, QUAD, ray, radii=[8.0, 16.0, 32.0, 64.0])
    assert 1.5 < fit.exponent < 2.5


class TestWeightExponents:
    def test_floor_and_chain(self):
        rng = np.random.default_rng(23)
        A = random_spd(rng, 3)
        p = BasePoint(np.array([2.0, 1.0, 0.5]), 0.3 + 0.1j)
        ells = [weight_ell(A, i, p) for i in range(1, 4)]
        assert all(e >= 1.0 for e in ells)
        # deeper strata are smaller sets, so the minimum distance grows
        assert ells[0] <= ells[1] + 1e-12
        assert ells[1] <= ells[2] + 1e-12

    def test_on_stratum_value_one(self):
        A = QuadForm.identity(3)
        p = BasePoint(np.array([0.0, 0.0, 3.0]), 0j)
        assert weight_ell(A, 1, p) == pytest.approx(1.0)

    def test_one_pass_equals_per_stratum_minimum(self):
        # the depth weight reads one stratum-table pass; it must equal
        # the minimum over the depth's strata taken one at a time
        rng = np.random.default_rng(29)
        for N in (2, 3, 4):
            for _ in range(10):
                A = random_spd(rng, N)
                p = BasePoint(rng.normal(size=N) * 2.0,
                              complex(*rng.normal(size=2)))
                for i in range(1, N + 1):
                    want = min(dist_closed_stratum(A, J, p)
                               for J in all_strata(N, i + 1, i + 1))
                    assert weight_ell(A, i, p) == 1.0 + want
