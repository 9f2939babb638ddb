"""Kernel values against closed forms, QMC, and structural identities."""

import math

import numpy as np
import pytest

from ghlab.geometry import BasePoint, IndexSet, QuadForm
from ghlab.kernels import (
    KernelSpec,
    _alpha_exact_n2,
    _assemble,
    RadialBump,
    alpha,
    alpha_batch,
    alpha_grad,
    beta,
    closed_form_axis,
    kernel_prefactor,
    qmc_alpha_oracle,
    weak_distributional_check,
)
from ghlab.quadrature import QuadratureSpec, SingularityProximity


QUAD = QuadratureSpec()


def random_spd(rng, n, lo=0.5, hi=2.5):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return QuadForm(q @ np.diag(rng.uniform(lo, hi, n)) @ q.T)


def arctan_oracle(A: QuadForm, labels, p: BasePoint) -> float:
    """Independent full-kernel value at N = 2.

    One sweep variable with integrand (a t^2 - 2 b t + c)^(-1); the
    antiderivative is arctan((a t - b)/sqrt(D))/sqrt(D), D = a c - b^2.
    """
    i, j = sorted(labels)
    if i == 0:
        k = 2 if j == 1 else 1
        direction = np.eye(2)[k - 1]
    else:
        direction = -np.ones(2)
    a = float(direction @ A.entries @ direction)
    b = float(direction @ A.entries @ p.mu)
    c = float(p.mu @ A.entries @ p.mu) + A.det * abs(p.eta) ** 2
    D = a * c - b * b
    val = (0.5 * math.pi + math.atan(b / math.sqrt(D))) / math.sqrt(D)
    return kernel_prefactor(2, A.det) * val


def test_prefactor_n1():
    # n = 1: 2 pi sqrt(q) / (3 * alpha(3)) = sqrt(q) / 2
    assert kernel_prefactor(1, 4.0) == pytest.approx(1.0)


def test_spec_validation():
    A = QuadForm.identity(3)
    with pytest.raises(ValueError):
        KernelSpec(A, (1, 1))
    with pytest.raises(ValueError):
        KernelSpec(A, (0, 4))
    s = KernelSpec(A, (2, 0))
    assert s.labels == (0, 2)
    assert s.is_axis
    assert not KernelSpec(A, (1, 3)).is_axis


def test_vanishing_convention():
    A = QuadForm.identity(3)
    spec = KernelSpec(A, (1, 2), restriction=IndexSet((0, 1)))
    assert spec.vanishes
    kv = alpha(spec, QUAD, BasePoint(np.ones(3), 1.0 + 0j))
    assert kv.value == 0.0
    kg = alpha_grad(spec, QUAD, BasePoint(np.ones(3), 1.0 + 0j))
    assert np.all(kg.gradient == 0.0)


def test_axis_closed_form_n1_exact():
    A = QuadForm(np.array([[1.7]]))
    p = BasePoint(np.array([0.9]), 0.5 - 0.3j)
    got = alpha(KernelSpec(A, (0, 1)), QUAD, p).value
    want = 1.0 / (2.0 * math.sqrt(0.9 ** 2 + abs(p.eta) ** 2))
    assert got == pytest.approx(want, rel=1e-14)
    assert closed_form_axis(A, 1, p) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_restricted_closed_form(N):
    rng = np.random.default_rng(100 + N)
    for _ in range(25):
        A = random_spd(rng, N)
        i = int(rng.integers(1, N + 1))
        I = IndexSet((0, i))
        p = BasePoint(rng.uniform(-2, 2, N), complex(*rng.uniform(0.3, 1.5, 2)))
        spec = KernelSpec(A, (0, i), restriction=I)
        got = alpha(spec, QUAD, p).value
        want = closed_form_axis(A, i, p, restriction=I)
        assert got == pytest.approx(want, rel=1e-10)


def test_full_kernels_match_arctan_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = random_spd(rng, 2)
        p = BasePoint(rng.uniform(-2, 2, 2), complex(*rng.uniform(0.2, 1.0, 2)))
        for labels in [(0, 1), (0, 2), (1, 2)]:
            got = alpha(KernelSpec(A, labels), QUAD, p)
            want = arctan_oracle(A, labels, p)
            assert got.value == pytest.approx(want, rel=1e-7)
            assert abs(got.value - want) <= 10.0 * got.error + 1e-12


def test_engine_is_exact_at_n2():
    # at N = 2 the one cone parameter is integrated in closed form, so the
    # engine agrees with the weak check's arctan kernel to roundoff
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = random_spd(rng, 2)
        p = BasePoint(rng.uniform(-2, 2, 2), complex(*rng.uniform(-1.0, 1.0, 2)))
        for labels in [(0, 1), (0, 2), (1, 2)]:
            got = alpha(KernelSpec(A, labels), QUAD, p)
            want = _alpha_exact_n2(A, labels, p.mu, np.array([abs(p.eta)]))[0]
            assert got.value == pytest.approx(want, rel=1e-12)
            assert got.error == 0.0


def test_three_dim_kernel_against_qmc():
    A = QuadForm.identity(3)
    p = BasePoint(np.array([2.0, 1.0, 1.0]), 0j)
    spec = KernelSpec(A, (0, 1))
    kv = alpha(spec, QUAD, p)
    m, se = qmc_alpha_oracle(spec, p, n_pow2=15, replicates=8)
    assert abs(kv.value - m) < 3.0 * se


def test_positivity_and_eta_symmetry():
    rng = np.random.default_rng(9)
    A = random_spd(rng, 3)
    for _ in range(10):
        p = BasePoint(rng.uniform(-2, 2, 3), complex(*rng.uniform(-1, 1, 2)))
        for labels in [(0, 2), (1, 3)]:
            v = alpha(KernelSpec(A, labels), QUAD, p).value
            assert v > 0.0
            # the kernel sees eta only through |eta|
            q = BasePoint(p.mu, abs(p.eta) + 0j)
            v2 = alpha(KernelSpec(A, labels), QUAD, q).value
            assert v2 == pytest.approx(v, rel=1e-9)


def test_permutation_equivariance():
    # relabeling active slots by a permutation pi maps kernels to kernels
    rng = np.random.default_rng(13)
    A = random_spd(rng, 3)
    p = BasePoint(rng.uniform(-2, 2, 3), 0.8 + 0.1j)
    perm = [2, 0, 1]  # slot k of the new frame is slot perm[k] of the old
    Pm = np.eye(3)[perm]
    A2 = QuadForm(Pm @ A.entries @ Pm.T)
    p2 = BasePoint(Pm @ p.mu, p.eta)
    inv = {old + 1: new + 1 for new, old in enumerate(perm)}
    for labels in [(0, 1), (1, 3)]:
        mapped = tuple(sorted(inv.get(l, 0) for l in labels))
        v1 = alpha(KernelSpec(A, labels), QUAD, p).value
        v2 = alpha(KernelSpec(A2, mapped), QUAD, p2).value
        assert v2 == pytest.approx(v1, rel=1e-9)


def test_restricted_ignores_complement_coordinates():
    rng = np.random.default_rng(21)
    A = random_spd(rng, 3)
    I = IndexSet((0, 1))
    spec = KernelSpec(A, (0, 1), restriction=I)
    p = BasePoint(np.array([0.7, 0.4, -0.9]), 0.6 + 0.2j)
    v1 = alpha(spec, QUAD, p).value
    p2 = BasePoint(np.array([0.7, 5.0, 3.0]), 0.6 + 0.2j)
    v2 = alpha(spec, QUAD, p2).value
    assert v2 == pytest.approx(v1, rel=1e-12)


def test_beta_is_full_minus_restricted():
    rng = np.random.default_rng(29)
    A = random_spd(rng, 3)
    I = IndexSet((0, 1))
    p = BasePoint(np.array([0.9, 1.2, -0.5]), 0.7 + 0.3j)
    b = beta(A, I, 0, 1, QUAD, p)
    full = alpha(KernelSpec(A, (0, 1)), QUAD, p).value
    restr = alpha(KernelSpec(A, (0, 1), restriction=I), QUAD, p).value
    assert b.value == pytest.approx(full - restr, rel=1e-12)


def test_gradient_relations():
    # d alpha_ij / d mu_k = d alpha_ik / d mu_j for active triples, and
    # d alpha_0i / d mu_j = d alpha_0j / d mu_i = -sum_t d alpha_ij / d mu_t
    rng = np.random.default_rng(37)
    A = random_spd(rng, 3)
    worst = 0.0
    for _ in range(20):
        p = BasePoint(rng.uniform(-2, 2, 3), complex(*rng.uniform(0.3, 1.0, 2)))
        g = {}
        scale = 0.0
        for i in range(0, 4):
            for j in range(i + 1, 4):
                kv = alpha_grad(KernelSpec(A, (i, j)), QUAD, p)
                g[(i, j)] = kv.gradient
                scale = max(scale, float(np.max(np.abs(kv.gradient[:3]))))
        assert scale > 0
        worst = max(worst, abs(g[(1, 2)][2] - g[(1, 3)][1]) / scale)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            lhs = g[(0, i)][j - 1]
            mid = g[(0, j)][i - 1]
            rhs = -float(np.sum(g[(i, j)][:3]))
            worst = max(worst, abs(lhs - mid) / scale, abs(lhs - rhs) / scale)
    assert worst < 1e-4


def test_alpha_batch_matches_pointwise():
    rng = np.random.default_rng(43)
    A = random_spd(rng, 3)
    spec = KernelSpec(A, (0, 2))
    base = BasePoint(np.array([1.0, 0.5, -0.7]), 0.6 + 0.4j)
    pts = [base]
    for k in range(3):
        v = base.as_vector()
        v[k] += 0.02
        pts.append(BasePoint.from_vector(v))
    vals, grads, _ = alpha_batch(spec, QUAD, pts, want_gradient=True)
    for t, p in enumerate(pts):
        assert vals[t] == pytest.approx(alpha(spec, QUAD, p).value, rel=1e-9)
        np.testing.assert_allclose(grads[t],
                                   alpha_grad(spec, QUAD, p).gradient,
                                   rtol=1e-6, atol=1e-10)


def _far_rows_match_pointwise(N, monkeypatch):
    """Rows far apart, one kernel batch per label pair: each row must equal
    its own alpha.  Returns the engine calls per batch."""
    import ghlab.kernels as kernels

    rng = np.random.default_rng(47)
    A = random_spd(rng, N)
    quad = QuadratureSpec(abs_tol=1e-11)
    pts = [BasePoint(np.array([0.9, 0.5, -0.7, 0.3][:N]), 0.6 + 0.4j),
           BasePoint(np.array([-1.2, 1.6, 0.4, -0.8][:N]), 1.1 - 0.2j),
           BasePoint(np.array([2.5, -0.8, 1.9, 1.2][:N]), 0.3 + 0.9j),
           BasePoint(np.array([-0.4, -2.2, -1.5, 0.6][:N]), -0.7 + 0.5j)]
    counts = []
    for labels in [(0, 2), (1, 3)]:
        spec = KernelSpec(A, labels)
        calls = []
        engine = kernels.power_kernel_integral
        monkeypatch.setattr(kernels, "power_kernel_integral",
                            lambda *a, **k: calls.append(1) or engine(*a, **k))
        vals, grads, errs = alpha_batch(spec, quad, pts, want_gradient=True)
        monkeypatch.undo()
        counts.append(len(calls))
        for t, p in enumerate(pts):
            one = alpha_grad(spec, quad, p)
            assert vals[t] == pytest.approx(one.value, rel=1e-12)
            assert errs[t] == pytest.approx(one.error, rel=1e-12)
            np.testing.assert_allclose(grads[t], one.gradient, rtol=1e-12,
                                       atol=1e-12 * float(np.max(np.abs(one.gradient))))
    return counts


def test_alpha_batch_far_rows_match_pointwise(monkeypatch):
    # N = 3 kernels (d = 2) are closed forms: far rows share one call
    assert _far_rows_match_pointwise(3, monkeypatch) == [1, 1]


def test_alpha_batch_far_rows_match_pointwise_n4(monkeypatch):
    # N = 4 kernels (d = 3) sweep one axis: no row may be swept on another
    # row's panel grid
    assert _far_rows_match_pointwise(4, monkeypatch) == [4, 4]


def test_pair_kernels_converge_at_tight_tolerance():
    # an ordinary N = 3 point: the pair kernels converge at a tight
    # tolerance too, where a truncated sweep needs T > 1e12
    A = QuadForm(np.array([
        [1.29359001604945, -0.18717469008463872, 0.29165339585813627],
        [-0.18717469008463872, 1.2151395269648109, -0.18511226256092206],
        [0.29165339585813627, -0.18511226256092206, 1.4640004241197238]]))
    p = BasePoint(np.array([-0.10584517983239694, -0.3322239400399196,
                            -0.8447839567256432]),
                  0.4825003710273061 + 0.07661154265700386j)
    tight = QuadratureSpec(abs_tol=1e-12)
    for labels in ((1, 2), (1, 3), (2, 3)):
        kv = alpha(KernelSpec(A, labels), tight, p)
        assert kv.error <= max(1e-12, 1e-8 * kv.value)
        assert kv.value == pytest.approx(alpha(KernelSpec(A, labels), QUAD, p).value,
                                         rel=1e-8)


def test_work_counters_are_pinned():
    # grid nodes per kernel call are deterministic, so they gate regressions:
    # at N = 3 nothing is swept (a row counts once), at N = 4 one axis is
    # swept (graded panels plus the mapped tail)
    A3 = QuadForm(np.array([[1.5, 0.2, 0.1], [0.2, 1.2, -0.3], [0.1, -0.3, 0.9]]))
    p3 = BasePoint(np.array([0.8, -0.5, 0.4]), 0.6 + 0.2j)
    assert alpha_grad(KernelSpec(A3, (0, 1)), QUAD, p3).evals == 1
    assert alpha_grad(KernelSpec(A3, (1, 2)), QUAD, p3).evals == 1
    A4 = QuadForm(np.array([
        [1.276341995534779, -0.0065205115731539545, 0.017418387685633682, -0.09057612264627342],
        [-0.0065205115731539545, 1.3118126399967247, -0.031852740053687024, 0.0823851601100817],
        [0.017418387685633682, -0.031852740053687024, 1.2780640128632168, 0.12116987701153403],
        [-0.09057612264627342, 0.0823851601100817, 0.12116987701153403, 0.9440881500969842]]))
    p4 = BasePoint(np.array([-0.4305473056064981, -0.7928433222219473,
                             -0.6542161649648368, 1.9371148657881885]),
                   0.13944050602891173 - 0.6978434856523438j)
    assert alpha_grad(KernelSpec(A4, (0, 1)), QUAD, p4).evals == 192


def test_on_sheet_raises():
    A = QuadForm.identity(2)
    spec = KernelSpec(A, (0, 1))
    with pytest.raises(SingularityProximity):
        alpha(spec, QUAD, BasePoint(np.array([0.0, 1.0]), 0j))


@pytest.mark.parametrize("labels", [(0, 2), (1, 3)])
def test_on_sheet_raises_n3(labels):
    # N = 3, two cone columns: points M t on the sheet (inside the cone, on
    # an edge, at the apex) and one within the floor (4.6e-3 here) of it
    A = random_spd(np.random.default_rng(5), 3)
    spec = KernelSpec(A, labels)
    _, _, _, M, _, _ = _assemble(spec)
    clear = BasePoint(M @ np.array([1.0, 0.5]) + 0.3, 0.2 + 0j)
    alpha_batch(spec, QUAD, [clear, BasePoint(np.array([-0.5, 1.0, 0.4]), 0j)])
    for t in ((1.0, 0.5), (1.0, 0.0), (0.0, 0.0)):
        on = BasePoint(M @ np.array(t), 0j)
        with pytest.raises(SingularityProximity):
            alpha(spec, QUAD, on)
        with pytest.raises(SingularityProximity):
            alpha_grad(spec, QUAD, on)
        near = BasePoint(M @ np.array(t), 1e-3j)
        with pytest.raises(SingularityProximity):
            alpha(spec, QUAD, near)
        with pytest.raises(SingularityProximity):
            alpha_batch(spec, QUAD, [clear, near])


def test_batch_checks_every_row_against_the_floor():
    # row 0 sits clear of the sheet, row 1 within the resolution floor
    # (1e-4 here): the batch must refuse the stencil, not only row 0
    spec = KernelSpec(QuadForm.identity(2), (0, 1))
    clear = BasePoint(np.array([0.5, 1.0]), 0.1 + 0j)
    close = BasePoint(np.array([1e-6, 1.0]), 0j)
    alpha_batch(spec, QUAD, [clear, BasePoint(np.array([0.4, 1.1]), 0.1j)])
    with pytest.raises(SingularityProximity):
        alpha_batch(spec, QUAD, [clear, close])


def test_harmonicity_of_kernel_n2():
    # Hessian by differencing analytic gradients; the anisotropic
    # Laplacian must vanish away from the sheet
    A = QuadForm(np.array([[1.4, 0.3], [0.3, 1.0]]))
    spec = KernelSpec(A, (0, 1))
    p = BasePoint(np.array([0.8, -0.6]), 0.7 + 0.2j)
    h = 1e-3
    hess = np.zeros((4, 4))
    for k in range(4):
        vp, vm = p.as_vector(), p.as_vector()
        vp[k] += h
        vm[k] -= h
        gp = alpha_grad(spec, QUAD, BasePoint.from_vector(vp)).gradient
        gm = alpha_grad(spec, QUAD, BasePoint.from_vector(vm)).gradient
        hess[:, k] = (gp - gm) / (2 * h)
    lap = float(np.sum(A.inv * hess[:2, :2])) + (hess[2, 2] + hess[3, 3]) / A.det
    scale = float(np.max(np.abs(hess)))
    assert abs(lap) / scale < 1e-4


def test_bump_laplacian_matches_fd():
    from ghlab.geometry import ScalarField, laplace_A

    A = QuadForm(np.array([[1.3, 0.2], [0.2, 0.9]]))
    bump = RadialBump(np.array([0.3, -1.2]), 1.7, 1.1)
    u = ScalarField(lambda p: bump.value(p.mu, abs(p.eta)))
    rng = np.random.default_rng(0)
    for _ in range(10):
        mu = bump.center + rng.uniform(-1, 1, 2)
        r = rng.uniform(0.05, 0.9)
        p = BasePoint(mu, r * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        got = float(bump.laplace_A(A, p.mu, abs(p.eta)))
        want = laplace_A(A, u, p)
        assert got == pytest.approx(want, abs=5e-4 * max(1.0, abs(want)))


def test_bump_support():
    bump = RadialBump(np.array([1.0, 0.0]), 0.5, 0.5)
    assert float(bump.value(np.array([2.0, 0.0]), 0.1)) == 0.0
    assert float(bump.value(np.array([1.1, 0.1]), 0.1)) > 0.0


@pytest.mark.parametrize("labels,center", [
    ((0, 1), (0.0, 2.0)),
    ((1, 2), (-3.0, -3.0)),
])
def test_weak_distributional_charge(labels, center):
    A = QuadForm(np.array([[1.3, 0.2], [0.2, 0.9]]))
    bump = RadialBump(np.array(center), 1.5, 1.2)
    res = weak_distributional_check(A, labels, bump, QuadratureSpec(abs_tol=1e-8))
    assert res.rel_gap < 1e-2
    assert res.lhs != 0.0


def test_weak_check_far_bump_both_sides_vanish():
    # identical grids, no stratum under the bump: the rhs is exactly zero
    # and the lhs is pure quadrature noise on a cancelling integrand
    A = QuadForm.identity(2)
    bump = RadialBump(np.array([40.0, 40.0]), 1.0, 1.0)
    res = weak_distributional_check(A, (0, 1), bump, QuadratureSpec(abs_tol=1e-8))
    assert abs(res.lhs) < 1e-4
    assert res.rhs == pytest.approx(0.0, abs=1e-12)
