"""Fiber-coordinate surrogates: two integration routes, closed forms,
and the exactly solvable one-slot model as anchors."""

import math

import numpy as np
import pytest

from ghlab import quadrature
from ghlab.checks import LOGZ_FORM_N2, random_point, random_spd
from ghlab.geometry import BasePoint, IndexSet, QuadForm, block, schur_complement
from ghlab.holo import (
    _LEG_NODES,
    GammaSpec,
    gamma,
    gamma_family,
    gamma_sum_check,
    log_z,
    taubnut_moduli,
)
from ghlab.quadrature import QuadratureError, QuadratureSpec, SingularityProximity
from oracles import gamma_closed_form, gamma_via_ray

QUAD = QuadratureSpec(abs_tol=1e-11)


def test_gammas_need_no_leading_block():
    # the folded gammas take any subset containing 0, not only {0..n}
    with pytest.raises(ValueError):
        GammaSpec(QuadForm.identity(3), IndexSet((1, 2)), QUAD)
    rng = np.random.default_rng(28)
    I = IndexSet((0, 2))
    for N in (2, 3):
        A = random_spd(rng, N)
        spec = GammaSpec(A, I, QUAD)
        for _ in range(5):
            p = random_point(rng, N)
            for i in (0, 2):
                want = gamma_closed_form(A, I, i, p)
                assert abs(gamma(spec, i, p) - want) <= 1e-12 * abs(want)
    spec = GammaSpec(random_spd(rng, 3), IndexSet((0, 1, 3)), QUAD)
    for _ in range(3):
        p = random_point(rng, 3)
        assert gamma_sum_check(spec, p).scaled_gap <= 1e-12
        for i in (0, 1, 3):
            fold = gamma(spec, i, p)
            assert abs(fold - gamma_via_ray(spec, i, p)) / abs(fold) < 1e-5
    # a radial eta leg into p, gauged to the exact one-slot moduli at its
    # start, holds |z_0 z_2| = sqrt(D) |eta| at p
    for N in (2, 3):
        A = random_spd(rng, N)
        G = schur_complement(A, I).entries[0, 0]
        comp = I.active_complement(N)
        D = float(np.linalg.det(block(A.entries, comp, comp)))
        for _ in range(3):
            p = random_point(rng, N)
            mu = p.mu.copy()
            mu[1] = 2.0 + abs(p.mu[1])
            ref = BasePoint(mu, 1.5 * p.eta)
            w0, w2 = taubnut_moduli(G, D, 0.0, ref.mu[1], ref.eta)
            res = log_z(A, I, QUAD, p, basepath=[ref, p],
                        gauge=np.array([math.log(w0), math.log(w2)]))
            want = math.sqrt(D) * abs(p.eta)
            assert abs(math.exp(float(np.sum(res.values))) - want) <= 1e-12 * want


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


def test_gamma_within_resolution_floor_is_refused():
    # mu = (1, 1) lies on the cone of gamma_0's (0, 1) integral (columns
    # e_2 and the ray (1, 1)), so |eta| alone sets the sheet distance,
    # here far below the floor 10 abs_tol^(1/N) = 3.2e-5
    spec = GammaSpec(QuadForm.identity(2), IndexSet((0, 1, 2)), QUAD)
    with pytest.raises(SingularityProximity):
        gamma(spec, 0, BasePoint(np.array([1.0, 1.0]), 1e-7j))


def test_gamma_refusal_names_gamma_kernel_and_row():
    # the refusal above, at row 1 of a batch: the message names gamma_0,
    # its kernel (0, 1) whose sheet the row meets, the row and its point
    spec = GammaSpec(QuadForm.identity(2), IndexSet((0, 1, 2)), QUAD)
    mu = np.array([[2.0, -1.0], [1.0, 1.0]])
    with pytest.raises(SingularityProximity, match=r"gamma_0 on \(0, 1, 2\): kernel "
                       r"\(0, 1\) at batch row 1 \(mu = \[1\.0, 1\.0\], eta = 1e-07j\)"):
        gamma_family(spec, (0,), mu, np.array([0.5j, 1e-7j]))


def test_gamma_refusal_past_an_eta_zero_row_names_the_callers_row():
    # the rows with eta = 0 never reach the engine, which so counts only
    # the others; the refusal still names the row in the caller's batch
    spec = GammaSpec(QuadForm.identity(2), IndexSet((0, 1, 2)), QUAD)
    mu = np.array([[2.0, -1.0], [2.0, -1.0], [1.0, -1.0]])
    with pytest.raises(SingularityProximity, match=r"gamma_2 on \(0, 1, 2\): kernel "
                       r"\(0, 2\) at batch row 2 \(mu = \[1\.0, -1\.0\], eta = 1e-07j\)"):
        gamma_family(spec, (0, 1, 2), mu, np.array([0.0, 0.5j, 1e-7j]))


def _leg(q0, q1):
    """The Gauss nodes (mu, eta) of the log_z leg from q0 to q1."""
    return (q0.mu + _LEG_NODES[:, None] * (q1.mu - q0.mu),
            q0.eta + _LEG_NODES * (q1.eta - q0.eta))


def test_moving_eta_leg_makes_one_gamma_call(monkeypatch):
    # N = 2, all slots: three labels of two kernels each, whose integrals
    # (power n + 2 = 4) differ only in the cone, so a leg on which eta
    # moves costs one engine call for all labels, not one per label, node
    # or kernel; rows with eta = 0 cost none
    import ghlab.holo as holo
    import ghlab.kernels as kernels

    powers = []
    engine = kernels.power_kernel_integral
    counted = lambda *a, **k: powers.append(a[5]) or engine(*a, **k)  # noqa: E731
    monkeypatch.setattr(kernels, "power_kernel_integral", counted)
    monkeypatch.setattr(holo, "power_kernel_integral", counted)
    A = QuadForm(np.array([[1.4, 0.2], [0.2, 0.9]]))
    p = BasePoint(np.array([0.8, -0.3]), 0.9 + 0.5j)
    ref = BasePoint(np.array([2.2, 1.7]), 1.0 + 0j)
    log_z(A, IndexSet((0, 1, 2)), QUAD, p, basepath=[ref, p])
    assert powers.count(4) == 1
    spec = GammaSpec(A, IndexSet((0, 1, 2)), QUAD)
    zero = gamma_family(spec, (1,), np.ones((5, 2)), np.zeros(5))
    assert powers.count(4) == 1 and not zero.value.any()


def test_no_labels_give_empty_rows():
    # an empty label tuple gives (0, B), as B = 0 gives (L, 0)
    spec = GammaSpec(QuadForm.identity(2), IndexSet((0, 1, 2)), QUAD)
    out = gamma_family(spec, (), np.ones((3, 2)), np.full(3, 0.5j))
    assert out.value.shape == out.error.shape == (0, 3) and out.evals == 0


@pytest.mark.parametrize("N, I", [(2, (0, 1)), (2, (0, 1, 2)), (3, (0, 1, 2, 3)),
                                  (4, (0, 1, 2, 3, 4))],
                         ids=["n2-one-slot", "n2-two-slots", "n3-all", "n4-all"])
def test_stacked_gammas_match_one_label_calls(N, I):
    # one family for every gamma of the subset against one family per
    # label: closed forms (N = 2) agree to roundoff, and the swept
    # integrals (d = 3, 4) are the same per-kernel calls, so their errors
    # and grid nodes agree exactly
    rng = np.random.default_rng(160 + N)
    spec = GammaSpec(random_spd(rng, N), IndexSet(I), QUAD)
    pts = [random_point(rng, N) for _ in range(3 if N < 4 else 2)]
    mu, eta = np.stack([p.mu for p in pts]), np.array([p.eta for p in pts])
    stacked = gamma_family(spec, I, mu, eta)
    ones = [gamma_family(spec, (i,), mu, eta) for i in I]
    assert stacked.value.shape == (len(I), len(pts))
    for a, one in enumerate(ones):
        assert np.all(np.abs(stacked.value[a] - one.value[0]) <= 1e-14 * np.abs(one.value[0]))
        assert np.array_equal(stacked.error[a], one.error[0])
    assert stacked.evals == sum(one.evals for one in ones)
    if N > 2:
        assert stacked.error.max() > 0.0


@pytest.mark.parametrize("N, I", [(2, (0, 1)), (2, (0, 1, 2)), (3, (0, 1, 2, 3))],
                         ids=["n2-one-slot", "n2-two-slots", "n3-all"])
def test_gamma_sum_check_makes_one_engine_call(monkeypatch, N, I):
    import ghlab.holo as holo

    calls = []
    engine = holo._engine_batch
    monkeypatch.setattr(holo, "_engine_batch",
                        lambda *a, **k: calls.append(len(a[0].M)) or engine(*a, **k))
    rng = np.random.default_rng(170 + N)
    spec = GammaSpec(random_spd(rng, N), IndexSet(I), QUAD)
    gamma_sum_check(spec, random_point(rng, N))
    # every label's kernels, n per label, in the one call
    n = len(I) - 1
    assert calls == [n * (n + 1)]


def test_stacked_gamma_refusal_names_its_gamma():
    # mu = (1, -1) lies on the cone of gamma_2's (0, 2) integral (columns
    # e_1 and the ray -e_2) and off every other gamma's cone, so the
    # stacked family's refusal names gamma_2, not the family's first gamma
    spec = GammaSpec(QuadForm.identity(2), IndexSet((0, 1, 2)), QUAD)
    mu = np.array([[2.0, -1.0], [1.0, -1.0]])
    with pytest.raises(SingularityProximity, match=r"gamma_2 on \(0, 1, 2\): kernel "
                       r"\(0, 2\) at batch row 1 \(mu = \[1\.0, -1\.0\], eta = 1e-07j\)"):
        gamma_family(spec, (0, 1, 2), mu, np.array([0.5j, 1e-7j]))
    with pytest.raises(SingularityProximity, match=r"gamma_2 on \(0, 1, 2\)"):
        gamma_sum_check(spec, BasePoint(mu[1], 1e-7j))


def test_swept_gamma_over_budget_names_gamma_kernel_and_row(monkeypatch):
    # N = 3, all slots: every gamma integral sweeps one axis; a node budget
    # below one grid refuses the first swept call, gamma_1's first kernel
    # at its first row, and says so
    import ghlab.quadrature as quadrature

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 100)
    A = QuadForm(np.array([[1.4, 0.2, 0.1], [0.2, 0.9, -0.1],
                           [0.1, -0.1, 1.2]]))
    spec = GammaSpec(A, IndexSet((0, 1, 2, 3)), QUAD)
    mu = np.array([[0.8, -0.3, 0.4], [0.5, 0.2, 0.1]])
    with pytest.raises(QuadratureError, match=r"gamma_1 on \(0, 1, 2, 3\): kernel \(0, 1\) "
                       r"at batch row 0 \(mu = \[0\.8, -0\.3, 0\.4\], eta = \(0\.9\+0\.5j\)\): "
                       r"panel grid needs \d+ evaluations per point, budget is 100"):
        gamma_family(spec, (1, 2), mu, np.array([0.9 + 0.5j, 0.7 - 0.2j]))


def test_swept_gamma_miss_names_the_row_that_missed(monkeypatch):
    # N = 3, all slots, a tolerance no sum can meet: gamma_1's first kernel
    # sweeps row 0 alone, which converges, then rows 1 and 2 on row 1's
    # grid, where row 2 misses by most; the refusal names batch row 2, not
    # its group's first row, and the engine's text names no row of its own
    A = QuadForm(np.array([[1.4, 0.2, 0.1], [0.2, 0.9, -0.1],
                           [0.1, -0.1, 1.2]]))
    monkeypatch.setattr(quadrature, "_REL_TOL", 1e-17)
    spec = GammaSpec(A, IndexSet((0, 1, 2, 3)), QuadratureSpec(abs_tol=1e-17))
    mu = np.array([[3.0, 2.5, -1.0], [0.8, -0.3, 0.4], [0.7, -0.28, 0.49]])
    eta = np.array([1.5 + 0.3j, 0.9 + 0.5j, 1.19 + 0.45j])
    with pytest.raises(QuadratureError, match=r"gamma_1 on \(0, 1, 2, 3\): kernel \(0, 1\) "
                       r"at batch row 2 \(mu = \[0\.7, -0\.28, 0\.49\], eta = \(1\.19\+0\.45j\)\): "
                       r"no convergence after \d passes: r\* = \S+, grid \d+, error \S+ "
                       r"against tolerance"):
        gamma_family(spec, (1, 2), mu, eta)


def test_batched_leg_gammas_match_one_node_calls_n3():
    # N = 3, all slots: every gamma integral sweeps one axis (d = 3), so
    # the leg's rows share grids only in groups; a batched row and a lone
    # row agree within their summed error estimates
    A = QuadForm(np.array([[1.4, 0.2, 0.1], [0.2, 0.9, -0.1],
                           [0.1, -0.1, 1.2]]))
    spec = GammaSpec(A, IndexSet((0, 1, 2, 3)), QUAD)
    mu, eta = _leg(BasePoint(np.array([2.2, 1.7, 2.5]), 1.0 + 0j),
                   BasePoint(np.array([0.8, -0.3, 0.4]), 0.9 + 0.5j))
    for i in (0, 1, 2, 3):
        batch = gamma_family(spec, (i,), mu, eta)
        assert batch.error.max() > 0.0
        for t in range(0, len(mu), 8):
            one = gamma_family(spec, (i,), mu[t:t + 1], eta[t:t + 1])
            gap = abs(batch.value[0, t] - one.value[0, 0])
            assert gap <= batch.error[0, t] + one.error[0, 0], (i, t)


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


def test_gamma_sum_identity_all_slots_n4():
    # five labels at N = 4: each gamma sweeps two axes on the radial grid
    rng = np.random.default_rng(77)
    A = random_spd(rng, 4)
    spec = GammaSpec(A, IndexSet(range(5)), QUAD)
    for _ in range(3):
        assert gamma_sum_check(spec, random_point(rng, 4)).scaled_gap <= 1e-13


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
    p = BasePoint(np.array([1.0, 1.0]), 0j)
    with pytest.raises(ValueError, match="path crosses eta = 0"):
        log_z(A, I, QUAD, p, basepath=[BasePoint(np.array([3.0, 1.0]), 0j), p])


def test_log_z_refuses_an_empty_path():
    # once an IndexError from basepath[-1]
    A = QuadForm.identity(2)
    p = BasePoint(np.array([1.0, 1.0]), 0.5 + 0.5j)
    with pytest.raises(ValueError, match="basepath is empty"):
        log_z(A, IndexSet((0, 1)), QUAD, p, basepath=[])


@pytest.mark.parametrize("n_ref, n_p", [(3, 3), (3, 2), (2, 1)],
                         ids=["path-n3", "start-n3", "end-n1"])
def test_log_z_refuses_points_of_another_dimension(n_ref, n_p):
    # on a leg at fixed eta no gammas are called, so an N = 3 path on the
    # N = 2 form once read the N = 2 answer
    A = QuadForm(np.array(LOGZ_FORM_N2))
    ref = BasePoint([2.5, -0.2, 5.0][:n_ref], 0.8 + 0.3j)
    p = BasePoint([0.3, -0.2, 5.0][:n_p], 0.8 + 0.3j)
    with pytest.raises(ValueError, match="dimension mismatch between form and point"):
        log_z(A, IndexSet((0, 1)), QUAD, p, basepath=[ref, p])


def test_log_z_refuses_legs_near_zero_fiber():
    # a leg on which eta moves is refused where it passes closer to eta = 0
    # than half its panels' eta-length (0.112 here); at closest |eta| of
    # 0.006 and 0.036 its panels would smear the one-form's 1/eta into
    # product-identity gaps of 9e-5 and 2e-8
    A = QuadForm(np.array([[1.8, 0.4], [0.4, 1.1]]))
    I = IndexSet((0, 1))
    G = schur_complement(A, I).entries[0, 0]
    D = A.entries[1, 1]
    start = BasePoint(np.array([2.7, -0.4]), 1.0 + 0.5j)
    w0, w1 = taubnut_moduli(G, D, 0.0, start.mu[0], start.eta)
    gauge = np.array([math.log(w0), math.log(w1)])
    for delta in (0.010, 0.058, 0.23):
        # closest |eta| 0.0062, 0.036 and 0.143
        eta = (-0.6 + 1j * delta / abs(start.eta)) * start.eta
        p = BasePoint(np.array([0.7, -0.4]), eta)
        if delta < 0.1:
            with pytest.raises(ValueError, match="passes within"):
                log_z(A, I, QUAD, p, basepath=[start, p], gauge=gauge)
            continue
        res = log_z(A, I, QUAD, p, basepath=[start, p], gauge=gauge)
        want = math.sqrt(D) * abs(eta)
        assert abs(math.exp(float(np.sum(res.values))) - want) <= 1e-12 * want


def test_gauge_shifts_additively():
    A = QuadForm(np.array([[1.8, 0.4], [0.4, 1.1]]))
    I = IndexSet((0, 1))
    p = BasePoint(np.array([0.6, -1.1]), 0.7 + 0.4j)
    path = [BasePoint(np.array([2.6, -1.1]), p.eta), p]
    shift = np.array([0.25, -0.4])
    r0 = log_z(A, I, QUAD, p, basepath=path)
    r1 = log_z(A, I, QUAD, p, basepath=path, gauge=shift)
    np.testing.assert_allclose(r1.values, r0.values + shift, atol=1e-12)
