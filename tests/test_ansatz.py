
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize

from ghlab import quadrature
from ghlab.checks import ONE_SLOT_FORM, random_point, random_spd
from ghlab.cli import EXPERIMENTS
from ghlab.geometry import BasePoint, IndexSet, QuadForm
from ghlab.ansatz import (
    _DECAY_RADII,
    FirstOrderField,
    Ray,
    RestrictedField,
    decay_scan,
    flat_field,
    sigma_expansion,
)
from ghlab.kernels import KernelSpec, alpha_batch, alpha_family
from ghlab.quadrature import QuadratureSpec, panel_nodes
from oracles import sigma_det_route

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

    @staticmethod
    def _brentq_root(p: BasePoint) -> tuple[float, float]:
        """The root of x prod(x + 2 mu_i) = |eta|^2 by brentq on the same
        bracket and tolerances as flat_field, and brentq's tolerance."""
        mu, target = p.mu, abs(p.eta) ** 2
        x_lo = max(0.0, -2.0 * float(np.min(mu)))
        hi = x_lo + max(1.0, target ** (1.0 / (p.N + 1)), 2.0 * float(np.max(np.abs(mu))))
        while hi * float(np.prod(hi + 2.0 * mu)) < target:
            hi *= 2.0
        xtol, rtol = 1e-300 + 1e-15 * hi, 8.9e-16
        x = optimize.brentq(lambda x: x * float(np.prod(x + 2.0 * mu)) - target,
                            x_lo, hi, xtol=xtol, rtol=rtol)
        return x, xtol + rtol * abs(x)

    def test_root_matches_brentq_on_the_acceptance_sampler(self):
        # criterion 01's sampler at its seed: N = 1..5, |eta| uniform in [0, 2]
        rng = np.random.default_rng(EXPERIMENTS["flat-cy"].seed)
        for N in range(1, 6):
            for _ in range(200):
                p = random_point(rng, N, eta_lo=0.0, eta_hi=2.0)
                want, tol = self._brentq_root(p)
                assert abs(flat_field(p).x - want) <= tol, (p.mu, p.eta)

    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_root_matches_brentq_far_out_and_near_the_lower_bound(self, N):
        # large |eta|, and tiny |eta| with one or more mu_i at or near the
        # minimum, so that x + 2 mu_i nearly vanishes at the root
        rng = np.random.default_rng(500 + N)
        pts = [BasePoint(rng.uniform(-2.0, 2.0, N), complex(e, 0.3 * e))
               for e in (1e3, 1e6, 1e12)]
        for gap in (0.0, 1e-14, 1e-8):
            for e in (1e-12, 1e-6, 1e-2):
                mu = rng.uniform(-2.0, 2.0, N)
                mu[:2] = mu.min() + np.array([0.0, gap])[:min(N, 2)]
                pts.append(BasePoint(mu, complex(0.0, e)))
        for p in pts:
            want, tol = self._brentq_root(p)
            assert abs(flat_field(p).x - want) <= tol, (p.mu, p.eta)

    def test_moduli_squares_consistent(self):
        p = BasePoint(np.array([0.7, -0.3]), 1.1 - 0.2j)
        res = flat_field(p)
        # |z_0|^2 = x, |z_i|^2 = x + 2 mu_i, and the product carries |eta|^2
        assert res.z_squared[0] == pytest.approx(res.x)
        np.testing.assert_allclose(res.z_squared[1:], res.x + 2.0 * p.mu,
                                   rtol=1e-13)


def _at(fld, p):
    """The field's jet at one point: a batch of one."""
    return fld.jet(p.mu[None], np.array([p.eta]))


def test_first_order_field_basic():
    rng = np.random.default_rng(3)
    A = random_spd(rng, 2)
    fld = FirstOrderField(A, QUAD)
    p = BasePoint(np.array([0.9, -0.6]), 0.7 + 0.2j)
    jet = _at(fld, p)
    assert np.linalg.eigvalsh(jet.V[0])[0] > 0.0 and jet.W[0] > 0.0
    assert jet.quad_error[0] <= max(QUAD.abs_tol,
                                    quadrature._REL_TOL * float(np.max(np.abs(jet.v[0]))))
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
    jet = fld.jet(np.array([p.mu for p in pts]), np.array([p.eta for p in pts]))
    alone = [_at(fld, p).quad_error[0] for p in pts]
    assert alone[0] != alone[1]
    assert jet.quad_error.tolist() == alone


@pytest.mark.parametrize("want_gradient", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_empty_batch_gives_empty_arrays(N, want_gradient):
    # a batch of no points passes check_batch; the closed forms (N <= 3)
    # return empty arrays for it, as the sweep (N = 4) does
    A = random_spd(np.random.default_rng(5), N)
    mu, eta = np.zeros((0, N)), np.zeros(0, dtype=complex)
    _, kv = alpha_family(A, QUAD, mu, eta, want_gradient, (0, 1))
    assert kv.value.shape == kv.error.shape == (1, 0) and kv.evals == 0
    jet = FirstOrderField(A, QUAD).jet(mu, eta)
    assert jet.V.shape == jet.v.shape == (0, N, N)
    assert jet.W.shape == jet.quad_error.shape == (0,)
    if want_gradient:
        assert kv.gradient.shape == (1, 0, N + 2)
    else:
        assert kv.gradient is None


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
    jet = fld.jet(mu, eta)
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
        assert jet.W[t] == pytest.approx(want.W[0], rel=1e-15)


@pytest.mark.parametrize("N, members", [(3, None), (3, (0, 1, 2)), (5, None)])
def test_jet_rows_are_label_order_sums_in_any_batch(N, members, monkeypatch):
    # v is one product against the table of label outers, summed
    # over the kernels in label order from 0: given the kernels' rows, each
    # point's jet is bitwise the kernel-by-kernel sum (signs of zero
    # included) and bitwise the same alone as in its batch; at N = 5 the
    # fifteen kernels outnumber numpy's eight-way pairwise blocks.  A model
    # field's kernels are its reduction's, and its sums are placed in its
    # block
    import ghlab.ansatz as ansatz
    from ghlab.kernels import KernelValue

    rng = np.random.default_rng(70 + N)
    A = random_spd(rng, N)
    I = None if members is None else IndexSet(members)
    slots = list(range(N)) if I is None else [a - 1 for a in I.active]
    n = len(slots)
    labels = tuple(itertools.combinations(range(n + 1), 2))
    B = 7
    mu, eta = rng.normal(size=(B, N)), rng.normal(size=B) + 1j * rng.normal(size=B)
    K = len(labels)
    value = rng.lognormal(size=(K, B)) * 10.0 ** rng.integers(-8, 9, (K, B))
    value[rng.random(value.shape) < 0.2] = 0.0

    def family(A_, quad, m, e):
        rows = [int(np.flatnonzero((mu[:, slots] == r).all(axis=1))[0]) for r in m]
        return labels, KernelValue(value[:, rows], np.zeros((K, len(rows))), 0)

    monkeypatch.setattr(ansatz, "alpha_family", family)
    fld = FirstOrderField(A, QUAD) if I is None else RestrictedField(A, I, QUAD)
    jet = fld.jet(mu, eta)
    v = np.zeros((B, n, n))
    for k, (i, j) in enumerate(labels):
        e = np.zeros(n + 1)
        e[i], e[j] = 1.0, -1.0
        v += value[k][:, None, None] * np.outer(e[1:], e[1:])
    got_v = jet.v
    if I is not None:
        inside = np.zeros((N, N), dtype=bool)
        inside[np.ix_(slots, slots)] = True
        assert not got_v[:, ~inside].any()
        got_v = got_v[:, slots][:, :, slots]
    assert got_v.tobytes() == v.tobytes()
    for b in range(B):
        one = fld.jet(mu[b:b + 1], eta[b:b + 1])
        for x, y in zip((jet.V, jet.W), (one.V, one.W)):
            assert x[b:b + 1].tobytes() == y.tobytes()


class TestSigmaExpansion:
    def test_two_routes_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            N = int(rng.integers(1, 5))
            A = random_spd(rng, N)
            root = rng.normal(size=(N, N)) * 0.1
            v = root @ root.T
            se = sigma_expansion(A, v)
            rel_det, det_ratio = sigma_det_route(A, v)
            assert se.relative_error == pytest.approx(rel_det, abs=1e-12)
            assert abs(det_ratio - (1.0 + float(np.sum(se.sigmas)))) < 1e-12

    def test_sigmas_match_scipy_generalized_eigenvalues(self):
        # the pencil (v, A) through a Cholesky factor of A against LAPACK's
        # generalized symmetric solver, on random forms and perturbations
        # of mixed sign, nonsymmetric ones symmetrized by both routes
        rng = np.random.default_rng(23)
        for _ in range(60):
            N = int(rng.integers(1, 7))
            A = random_spd(rng, N)
            v = rng.normal(size=(N, N)) * 10.0 ** rng.uniform(-3.0, 0.0)
            eigs = linalg.eigh(0.5 * (v + v.T), A.entries, eigvals_only=True)
            want = np.array([(-1.0) ** k * c for k, c in enumerate(np.poly(eigs))][1:])
            scale = np.max(np.abs(eigs)) ** np.arange(1, N + 1)
            got = sigma_expansion(A, v).sigmas
            np.testing.assert_allclose(got / scale, want / scale, rtol=0.0, atol=1e-13)

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
    # the fitted exponent of the relative error is near 2 along a generic
    # ray at N = 2 (the N = 3 rays live in the acceptance suite)
    A = QuadForm.identity(2)
    ray = Ray(np.array([1.0, 0.7]), base_eta=0.5 + 0.2j)
    fit = decay_scan(A, QUAD, ray)
    assert 1.5 < fit.exponent < 2.5


@pytest.mark.parametrize("form", ["identity", "random"])
def test_decay_scales_are_each_rows_anisotropic_norm(form):
    # row k is mu = base_mu + r_k dir_mu (base 0 when none is given) at
    # eta = base_eta, measured by sqrt(mu^T A mu + det A |eta|^2): on the
    # identity form sqrt(|mu|^2 + |eta|^2), on another eta weighs det A
    if form == "identity":
        A, ray = QuadForm.identity(2), Ray(np.array([1.0, 0.7]), base_eta=0.5 + 0.2j)
        mu = _DECAY_RADII[:, None] * ray.dir_mu
        want = np.sqrt((mu * mu).sum(axis=1) + abs(ray.base_eta) ** 2)
    else:
        A = random_spd(np.random.default_rng(61), 2)
        ray = Ray(np.array([1.0, 0.7]), base_mu=np.array([0.5, -0.3]), base_eta=0.5 + 0.2j)
        mu = ray.base_mu + _DECAY_RADII[:, None] * ray.dir_mu
        want = np.sqrt(np.einsum("bi,ij,bj->b", mu, A.entries, mu)
                       + A.det * abs(ray.base_eta) ** 2)
    np.testing.assert_allclose(decay_scan(A, QUAD, ray).scales, want, rtol=1e-14, atol=0)


def test_decay_scan_refuses_a_ray_it_cannot_fit():
    # at N = 1 the volume defect is 0 at every radius, so no radius is
    # kept, and np.polyfit once raised TypeError on the empty fit
    with pytest.raises(ValueError, match="decay scan of ray 'flat': 0 of 17 radii"):
        decay_scan(QuadForm.identity(1), QUAD, Ray(np.array([1.0]), base_eta=0.5, label="flat"))


def test_one_slot_field_v_is_its_kernel():
    # at N = 1 the field's one kernel is (0, 1) and v is its value, bit for
    # bit, so criterion 02 reads the kernel from the field's jet
    A = QuadForm(np.array([[ONE_SLOT_FORM]]))
    rng = np.random.default_rng(2)
    pts = [random_point(rng, 1) for _ in range(20)]
    mu, eta = np.array([p.mu for p in pts]), np.array([p.eta for p in pts])
    v = FirstOrderField(A, QUAD).jet(mu, eta).v[:, 0, 0]
    assert v.tobytes() == alpha_batch(KernelSpec(A, (0, 1)), QUAD, mu, eta).value.tobytes()
