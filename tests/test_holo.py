"""Fiber-coordinate surrogates: two integration routes, closed forms,
and the exactly solvable one-slot model as anchors."""

import math

import numpy as np
import pytest

from ghlab.checks import random_spd
from ghlab.geometry import BasePoint, IndexSet, QuadForm, schur_complement
from ghlab.holo import (
    GammaSpec,
    gamma,
    gamma_closed_form,
    gamma_sum_check,
    gamma_via_ray,
    growth_bound_check,
    log_z,
    taubnut_moduli,
)
from ghlab.quadrature import QuadratureSpec

QUAD = QuadratureSpec(abs_tol=1e-11)


def test_gammaspec_requires_leading_block():
    A = QuadForm.identity(3)
    with pytest.raises(ValueError):
        GammaSpec(A, IndexSet((0, 2)), QUAD)


def test_gamma_against_closed_form_one_slot():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        A = random_spd(rng, 2)
        spec = GammaSpec(A, IndexSet((0, 1)), QUAD)
        p = BasePoint(rng.uniform(-1.5, 1.5, 2), complex(*rng.uniform(0.3, 1.2, 2)))
        for i in (0, 1):
            got = gamma(spec, i, p)
            want = gamma_closed_form(A, IndexSet((0, 1)), i, p)
            worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-9


def test_gamma_two_routes_agree_two_slots():
    A = QuadForm(np.array([[1.8, 0.4], [0.4, 1.1]]))
    spec = GammaSpec(A, IndexSet((0, 1, 2)), QUAD)
    p = BasePoint(np.array([0.6, -1.1]), 0.7 + 0.4j)
    for i in (0, 1, 2):
        fold = gamma(spec, i, p)
        ray = gamma_via_ray(spec, i, p)
        assert abs(fold - ray) / abs(fold) < 1e-5


def test_gamma_eta_conjugation_parity():
    A = QuadForm(np.array([[1.5, 0.2], [0.2, 1.0]]))
    spec = GammaSpec(A, IndexSet((0, 1, 2)), QUAD)
    p = BasePoint(np.array([0.4, 0.9]), 0.5 + 0.8j)
    q = BasePoint(p.mu, p.eta.conjugate())
    for i in (0, 1, 2):
        assert gamma(spec, i, q) == pytest.approx(
            gamma(spec, i, p).conjugate(), rel=1e-10)


def test_gamma_vanishes_at_zero_fiber():
    A = QuadForm.identity(2)
    spec = GammaSpec(A, IndexSet((0, 1)), QUAD)
    assert gamma(spec, 0, BasePoint(np.array([1.0, 1.0]), 0j)) == 0j


def test_gamma_sum_identity():
    rng = np.random.default_rng(7)
    for n_active, tol in [(1, 1e-9), (2, 1e-9)]:
        A = random_spd(rng, 2)
        spec = GammaSpec(A, IndexSet(tuple(range(n_active + 1))), QUAD)
        for _ in range(3):
            p = BasePoint(rng.uniform(-1.5, 1.5, 2),
                          complex(*rng.uniform(0.3, 1.2, 2)))
            res = gamma_sum_check(spec, p)
            assert res.scaled_gap < tol


def test_taubnut_moduli_product():
    # |w0 w1| = sqrt(D) |eta| exactly, any gauge constant
    G, D, C = 1.37, 0.82, 0.3
    mu, eta = 0.9, 0.5 + 0.7j
    w0, w1 = taubnut_moduli(G, D, C, mu, eta)
    assert w0 * w1 == pytest.approx(math.sqrt(D) * abs(eta), rel=1e-14)


def test_taubnut_moduli_vanishing_orders():
    # at mu > 0 the first coordinate collapses linearly in eta while the
    # second stays put; no cancellation even at eta = 1e-10
    G, D = 1.0, 1.0
    w0_a, w1_a = taubnut_moduli(G, D, 0.0, 1.0, 1e-8)
    w0_b, w1_b = taubnut_moduli(G, D, 0.0, 1.0, 1e-10)
    assert w0_a / w0_b == pytest.approx(100.0, rel=1e-6)
    assert w1_a == pytest.approx(w1_b, rel=1e-6)
    assert w0_a * w1_a == pytest.approx(1e-8, rel=1e-13)


def test_log_z_matches_taubnut_model():
    A = QuadForm(np.array([[1.8, 0.4], [0.4, 1.1]]))
    I = IndexSet((0, 1))
    G = schur_complement(A, I).entries[0, 0]
    D = A.entries[1, 1]
    p = BasePoint(np.array([0.6, -1.1]), 0.7 + 0.4j)
    ref = BasePoint(np.array([2.6, -1.1]), p.eta)
    w0r, w1r = taubnut_moduli(G, D, 0.0, ref.mu[0], ref.eta)
    gauge = np.array([math.log(w0r), math.log(w1r)])
    res = log_z(A, I, QUAD, p, basepath=[ref, p], gauge=gauge)
    w0, w1 = taubnut_moduli(G, D, 0.0, p.mu[0], p.eta)
    assert res.values[0] == pytest.approx(math.log(w0), abs=1e-10)
    assert res.values[1] == pytest.approx(math.log(w1), abs=1e-10)
    # pinned bit for bit: evaluating a leg in one batch must not change
    # its rounding
    assert res.values.tolist() == [-1.4068419400339456, 1.2391055718898822]


def test_log_z_path_independence():
    A = QuadForm(np.array([[1.8, 0.4], [0.4, 1.1]]))
    I = IndexSet((0, 1))
    p = BasePoint(np.array([0.6, -1.1]), 0.7 + 0.4j)
    ref = BasePoint(np.array([2.6, -1.1]), p.eta)
    detour = BasePoint(np.array([1.9, 0.4]), 1.1 - 0.6j)
    r1 = log_z(A, I, QUAD, p, basepath=[ref, p])
    r2 = log_z(A, I, QUAD, p, basepath=[ref, detour, p])
    np.testing.assert_allclose(r1.values, r2.values, atol=1e-6)


def test_log_z_full_subset_sum_tracks_fiber():
    # summing all the log moduli reproduces log |eta| up to the value at
    # the reference point: the closed one-form telescopes exactly
    A = QuadForm(np.array([[1.4, 0.2], [0.2, 0.9]]))
    I = IndexSet((0, 1, 2))
    p = BasePoint(np.array([0.8, -0.3]), 0.9 + 0.5j)
    ref = BasePoint(np.array([2.2, 1.7]), 1.0 + 0j)
    res = log_z(A, I, QUAD, p, basepath=[ref, p])
    got = float(np.sum(res.values))
    want = math.log(abs(p.eta)) - math.log(abs(ref.eta))
    assert got == pytest.approx(want, abs=1e-8)
    # pinned bit for bit, as for the one-slot model above
    assert res.values.tolist() == [5.2549281728531, -2.572519020425355,
                                   -2.6532746983657596]


def test_log_z_rejects_zero_fiber():
    A = QuadForm.identity(2)
    I = IndexSet((0, 1))
    with pytest.raises(ValueError):
        log_z(A, I, QUAD, BasePoint(np.array([1.0, 1.0]), 0j))


def test_gauge_shifts_additively():
    A = QuadForm(np.array([[1.8, 0.4], [0.4, 1.1]]))
    I = IndexSet((0, 1))
    p = BasePoint(np.array([0.6, -1.1]), 0.7 + 0.4j)
    shift = np.array([0.25, -0.4])
    r0 = log_z(A, I, QUAD, p)
    r1 = log_z(A, I, QUAD, p, gauge=shift)
    np.testing.assert_allclose(r1.values, r0.values + shift, atol=1e-12)


def test_growth_bound_fit_reports_envelope():
    A = QuadForm(np.array([[1.8, 0.4], [0.4, 1.1]]))
    I = IndexSet((0, 1))
    pts = [BasePoint(np.array([3.0 + 2.0 * k, 0.5]), 0.8 + 0.1j)
           for k in range(5)]
    fits = growth_bound_check(A, I, QUAD, pts)
    assert len(fits) == 2
    for f in fits:
        assert np.isfinite([f.k1, f.k2, f.k3, f.k4]).all()
        assert f.k1 <= f.k3
