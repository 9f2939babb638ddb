"""Kernel values against closed forms, QMC, and structural identities."""

import itertools
import math
import re

import numpy as np
import pytest

from ghlab import checks, kernels, locus
from ghlab.ansatz import FirstOrderField
from ghlab.checks import WEAK_BUMPS_N2, WEAK_FORM_N2, off_locus_point, random_spd
from ghlab.geometry import (BasePoint, IndexSet, QuadForm, batch_from_vectors, laplace_terms,
                            reduction)
from ghlab.holo import GammaSpec, gamma_family
from ghlab.kernels import (
    KernelSpec,
    _family,
    _cone_integral,
    RadialBump,
    alpha,
    alpha_batch,
    alpha_family,
    alpha_grad,
    alpha_hessian,
    closed_form_axis,
    kernel_prefactor,
    weak_distributional_check,
)
from ghlab.quadrature import (QuadratureError, QuadratureSpec, SingularityProximity,
                              power_kernel_integral)
from oracles import central_difference, qmc_alpha_oracle, restricted_kernels


QUAD = QuadratureSpec()


def arctan_oracle(A: QuadForm, labels, p: BasePoint) -> float:
    """Independent full-kernel value at N = 2, in 60-digit arithmetic
    (skips the calling test without mpmath).

    One sweep variable with integrand (a t^2 - 2 b t + c)^(-1); the
    antiderivative is arctan((a t - b)/sqrt(D))/sqrt(D), D = a c - b^2.
    """
    mpmath = pytest.importorskip("mpmath")
    i, j = sorted(labels)
    if i == 0:
        k = 2 if j == 1 else 1
        direction = np.eye(2)[k - 1]
    else:
        direction = -np.ones(2)
    with mpmath.workdps(60):
        Q = mpmath.matrix(A.entries.tolist())
        d = mpmath.matrix(direction.tolist())
        mu = mpmath.matrix(p.mu.tolist())
        a = (d.T * Q * d)[0]
        b = (d.T * Q * mu)[0]
        c = (mu.T * Q * mu)[0] + mpmath.mpf(A.det) * mpmath.mpf(abs(p.eta)) ** 2
        D = a * c - b * b
        val = (mpmath.pi / 2 + mpmath.atan(b / mpmath.sqrt(D))) / mpmath.sqrt(D)
        return float(mpmath.mpf(kernel_prefactor(2, A.det)) * val)


def _engine_data(A: QuadForm, labels):
    """(Q, c_eta, M, power, prefactor) of the full-space kernel ``labels``."""
    fam = _family(A, tuple(labels))
    return fam.Q, fam.c_eta, fam.M[0], fam.power, fam.prefactor


def _batch(points):
    """The batch (mu, eta) of a list of base points."""
    return np.array([p.mu for p in points]), np.array([p.eta for p in points])


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


def test_spec_refuses_a_label_that_is_not_an_integer():
    # (0, 1.5) was once kept, and failed later inside tuple.index
    with pytest.raises(TypeError):
        KernelSpec(QuadForm.identity(3), (0, 1.5))


def test_spec_refuses_labels_that_are_no_pair():
    # once "too many values to unpack" from the sort
    with pytest.raises(ValueError, match=r"kernel labels \(0, 1, 2\) are not a pair"):
        KernelSpec(QuadForm.identity(3), (0, 1, 2))


@pytest.mark.parametrize("i", [0, 3], ids=["label-0", "label-N+1"])
def test_closed_form_axis_refuses_labels_off_the_axes(i):
    # label 0 once read mu[-1] and returned 0.602; label N + 1 raised a
    # bare IndexError
    A = QuadForm(np.array([[1.3, 0.2], [0.2, 0.9]]))
    p = BasePoint(np.array([0.5, -0.3]), 0.7 + 0.2j)
    with pytest.raises(ValueError, match=rf"axis label {i} out of range 1\.\.2"):
        closed_form_axis(A, i, p)


@pytest.mark.parametrize("mu", [[0.5, -0.3, 9.0], [0.5]], ids=["N=3", "N=1"])
def test_closed_form_axis_refuses_points_of_another_dimension(mu):
    # an N = 3 point once read the N = 2 value 0.5864, and an N = 1 point
    # raised a bare IndexError
    A = QuadForm(np.array([[1.3, 0.2], [0.2, 0.9]]))
    with pytest.raises(ValueError, match="dimension mismatch between form and point"):
        closed_form_axis(A, 1, BasePoint(mu, 0.7 + 0.2j))


def test_vanishing_convention():
    # a kernel whose labels leave I has no part in I's model: the model
    # field is zero off I's block
    from ghlab.ansatz import RestrictedField

    A = random_spd(np.random.default_rng(9), 3)
    I, p = IndexSet((0, 1)), BasePoint(np.ones(3), 1.0 + 0j)
    jet = RestrictedField(A, I, QUAD).jet(p.mu[None], np.array([p.eta]))
    off = np.ones((3, 3), dtype=bool)
    off[0, 0] = False
    assert not jet.v[0][off].any()


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
        red = reduction(A, I)
        mu, eta = red.batch(p.mu[None], np.array([p.eta]))
        got = alpha_batch(KernelSpec(red.G, (0, 1)), QUAD, mu, eta).value[0]
        want = closed_form_axis(A, i, p)
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
    # engine agrees with the arctan kernel to roundoff
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = random_spd(rng, 2)
        p = BasePoint(rng.uniform(-2, 2, 2), complex(*rng.uniform(-1.0, 1.0, 2)))
        for labels in [(0, 1), (0, 2), (1, 2)]:
            got = alpha(KernelSpec(A, labels), QUAD, p)
            want = arctan_oracle(A, labels, p)
            assert got.value == pytest.approx(want, rel=1e-12)
            assert got.error == 0.0


@pytest.mark.parametrize("labels, mu, r", [
    ((1, 2), (-4.34665933, -4.34666665), 1.9407467666656607e-06),
    ((0, 2), (3.11460782, 3.88149353e-06), 1.5525974133325284e-06),
    ((0, 1), (3.88149353e-06, 3.42835180), 1.5525974133325284e-06),
])
def test_weak_check_kernel_near_the_sheet(labels, mu, r):
    # points about 2e-6 from the sheet, where an arctan of D = a c - b^2
    # formed by subtraction loses up to 1.6e-4; the direct engine call
    # that the weak check makes stays within rel 1e-9
    A = QuadForm(np.array(WEAK_FORM_N2))
    Q, c_eta, M, power, pref = _engine_data(A, labels)
    res = power_kernel_integral(Q, c_eta, np.array([mu]), np.array([r]), M[None],
                                power, QuadratureSpec(abs_tol=1e-8), prefactor=pref)
    want = arctan_oracle(A, labels, BasePoint(np.array(mu), r))
    assert pref * res.value[0, 0] == pytest.approx(want, rel=1e-9)


def test_wrong_width_rows_are_rejected():
    # a 4-coordinate row against a 3x3 form is an error, not a point on the
    # first three coordinates
    A = random_spd(np.random.default_rng(3), 3)
    p = BasePoint(np.array([0.9, -0.4, 0.6, 1.1]), 0.5 + 0.2j)
    mu, eta = _batch([p])
    with pytest.raises(ValueError):
        alpha_batch(KernelSpec(A, (0, 1)), QUAD, mu, eta)
    with pytest.raises(ValueError):
        FirstOrderField(A, QUAD).jet(mu, eta)


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
    # the model of I reads mu only on I's slots, in the library's reduced
    # route and in the oracle's route on A's coordinates alike
    rng = np.random.default_rng(21)
    A = random_spd(rng, 3)
    I = IndexSet((0, 1))
    mu = np.array([[0.7, 0.4, -0.9], [0.7, 5.0, 3.0]])
    eta = np.full(2, 0.6 + 0.2j)
    red = reduction(A, I)
    model = alpha_batch(KernelSpec(red.G, (0, 1)), QUAD, *red.batch(mu, eta)).value
    assert model[1] == pytest.approx(model[0], rel=1e-12)
    _, kv = restricted_kernels(A, I, QUAD, mu, eta)
    assert kv.value[0, 1] == pytest.approx(kv.value[0, 0], rel=1e-12)


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
        pts.append(BasePoint(v[:-2], complex(v[-2], v[-1])))
    _, kv = alpha_family(A, QUAD, *_batch(pts), True, spec.labels)
    vals, grads = kv.value[0], kv.gradient[0]
    for t, p in enumerate(pts):
        assert vals[t] == pytest.approx(alpha(spec, QUAD, p).value, rel=1e-9)
        np.testing.assert_allclose(grads[t],
                                   alpha_grad(spec, QUAD, p).gradient,
                                   rtol=1e-6, atol=1e-10)


def _far_rows_match_pointwise(N, monkeypatch):
    """Rows far apart, one kernel batch per label pair: each row must equal
    its own alpha.  Returns the engine calls and the group sweeps per
    batch."""
    import ghlab.kernels as kernels
    import ghlab.quadrature as quadrature

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
        calls, sweeps = [], []
        engine, sweep = kernels.power_kernel_integral, quadrature._sweep_group
        monkeypatch.setattr(kernels, "power_kernel_integral",
                            lambda *a, **k: calls.append(1) or engine(*a, **k))
        monkeypatch.setattr(quadrature, "_sweep_group",
                            lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
        _, kv = alpha_family(A, quad, *_batch(pts), True, labels)
        vals, grads, errs = kv.value[0], kv.gradient[0], kv.error[0]
        monkeypatch.undo()
        counts.append((len(calls), len(sweeps)))
        for t, p in enumerate(pts):
            one = alpha_grad(spec, quad, p)
            assert vals[t] == pytest.approx(one.value, rel=1e-12)
            assert errs[t] == pytest.approx(one.error, rel=1e-12)
            np.testing.assert_allclose(grads[t], one.gradient, rtol=1e-12,
                                       atol=1e-12 * float(np.max(np.abs(one.gradient))))
    return counts


def test_alpha_batch_far_rows_match_pointwise(monkeypatch):
    # N = 3 kernels (d = 2) are closed forms: far rows share one call and
    # nothing is swept
    assert _far_rows_match_pointwise(3, monkeypatch) == [(1, 0), (1, 0)]


def test_alpha_batch_far_rows_match_pointwise_n4(monkeypatch):
    # N = 4 kernels (d = 3) sweep one axis: still one engine call, but no
    # row may be swept on another row's panel grid, so each row is a group
    assert _far_rows_match_pointwise(4, monkeypatch) == [(1, 4), (1, 4)]


def test_pair_kernels_converge_at_tight_tolerance():
    # an ordinary N = 3 point: the pair kernels are closed forms, so a
    # tight tolerance costs nothing more and still holds
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


def _reach_point(seed: int, N: int) -> tuple[QuadForm, BasePoint]:
    rng = np.random.default_rng(seed)
    A = random_spd(rng, N)
    while True:
        p = checks.random_point(rng, N)
        if locus.dist_locus(A, p) > 0.2:
            return A, p


def test_work_counters_are_pinned():
    # grid nodes per kernel call are deterministic, so they gate regressions:
    # at N = 3 nothing is swept (a row counts once), at N = 4 one axis is
    # swept (graded panels plus the mapped tail), at N = 5 two (the radial
    # grid: graded radius and mapped tail times one stick-breaking coordinate)
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
    A5, p5 = _reach_point(100, 5)
    assert alpha_grad(KernelSpec(A5, (0, 1)), QUAD, p5).evals == 12800


def test_closed_form_calls_solve_no_sheet_distance(monkeypatch):
    # engine call counts carry no noise either: a closed-form (d <= 2) call
    # reads every pair's sheet distance from its own coordinates, so it
    # makes no sheet_distance or nonneg_argmin call, and one field-n3 point
    # (criterion 12's two Hessian calls, the cones at p + 2 and their faces,
    # and criterion 04's six gradients) makes exactly 8 engine calls
    from ghlab import frame, quadrature

    solves, engine = [], []
    for name in ("sheet_distance", "nonneg_argmin"):
        monkeypatch.setattr(quadrature, name, lambda *args, _f=getattr(quadrature, name),
                            _n=name: solves.append(_n) or _f(*args))
    monkeypatch.setattr(kernels, "power_kernel_integral",
                        lambda *args, **kw: engine.append(1) or power_kernel_integral(*args, **kw))
    A3 = QuadForm(np.array([[1.5, 0.2, 0.1], [0.2, 1.2, -0.3], [0.1, -0.3, 0.9]]))
    p3 = BasePoint(np.array([0.8, -0.5, 0.4]), 0.6 + 0.2j)
    frame.integrability_residual(FirstOrderField(A3, QUAD), p3)
    for labels in itertools.combinations(range(4), 2):
        alpha_grad(KernelSpec(A3, labels), QUAD, p3)
    assert solves == [] and len(engine) == 8
    # a swept call (N = 4) solves its sheet distances, and the spies see it
    alpha_grad(KernelSpec(QuadForm.identity(4), (0, 1)), QUAD,
               BasePoint(np.array([0.5, -0.3, 0.8, 0.2]), 0.4 + 0j))
    assert "sheet_distance" in solves and "nonneg_argmin" in solves


# N = 5 kernels at the seed-100 point, (value, gradient) as computed at
# abs_tol 1e-13 by an independent sweep: geometric panels on each swept
# axis out to a truncation radius, plus an analytic bound on the mass
# beyond it
N5_SEED100 = {
    (0, 1): (0.005356422404220519,
             [4.245542276857889e-05, 0.0006641831016748265, 0.0016004279305275972,
              0.0007907378902256199, 0.0013420770448656528, -0.001148507726253987,
              -0.0006541542746337953]),
    (1, 2): (0.015647030896647773,
             [-0.002781690106952236, -0.0049469620530142346, 0.0028528013088624377,
              0.0012174908500265182, 0.00299417689940267, -0.004992200181894488,
              -0.0028434019329284903]),
    (2, 4): (0.014593828595284478,
             [0.0012174908500265133, -0.003230647791954338, 0.0013198032815327106,
              -0.001662760870294018, 0.0017320834657976543, -0.00308412985331457,
              -0.001756624427466209]),
}


def test_n5_kernels_match_truncated_sweep():
    A, p = _reach_point(100, 5)
    tight = QuadratureSpec(abs_tol=1e-13)
    for labels, (value, grad) in N5_SEED100.items():
        kv = alpha_grad(KernelSpec(A, labels), tight, p)
        assert kv.value == pytest.approx(value, rel=1e-12), labels
        np.testing.assert_allclose(kv.gradient, grad, rtol=1e-12,
                                   atol=1e-12 * float(np.max(np.abs(grad))))


@pytest.mark.parametrize("seed, N", [(202, 5), (300, 6)])
def test_swept_kernel_against_radial_qmc(seed, N):
    # two and three swept axes: the radial grid against the radially mapped
    # oracle, whose integrand stays bounded at every corner of the orthant
    A, p = _reach_point(seed, N)
    spec = KernelSpec(A, (0, 1))
    kv = alpha(spec, QUAD, p)
    m, se = qmc_alpha_oracle(spec, p, n_pow2=16)
    assert abs(kv.value - m) < 4.0 * se


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
    M = _engine_data(A, labels)[2]
    clear = BasePoint(M @ np.array([1.0, 0.5]) + 0.3, 0.2 + 0j)
    alpha_batch(spec, QUAD, *_batch([clear, BasePoint(np.array([-0.5, 1.0, 0.4]), 0j)]))
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
            alpha_batch(spec, QUAD, *_batch([clear, near]))


def test_batch_checks_every_row_against_the_floor():
    # row 0 sits clear of the sheet, row 1 within the resolution floor
    # (1e-4 here): the call must check every row, not only row 0
    spec = KernelSpec(QuadForm.identity(2), (0, 1))
    clear = BasePoint(np.array([0.5, 1.0]), 0.1 + 0j)
    close = BasePoint(np.array([1e-6, 1.0]), 0j)
    alpha_batch(spec, QUAD, *_batch([clear, BasePoint(np.array([0.4, 1.1]), 0.1j)]))
    with pytest.raises(SingularityProximity):
        alpha_batch(spec, QUAD, *_batch([clear, close]))


def test_refusal_names_kernel_row_and_point():
    # the refusing (kernel, row) pair is named with the row's point, in a
    # one-kernel batch, a field jet's family (N = 2, closed forms) and a
    # swept batch (N = 4), and so do the Hessians, whose cones at p + 2
    # share the kernels' sheets
    spec = KernelSpec(QuadForm.identity(2), (0, 1))
    clear = BasePoint(np.array([0.5, 1.0]), 0.1 + 0j)
    close = BasePoint(np.array([1e-6, 1.0]), 0j)
    with pytest.raises(SingularityProximity, match=r"kernel \(0, 1\) at batch row 2 "
                       r"\(mu = \[1e-06, 1\.0\], eta = 0j\): distance 1\.000e-06"):
        alpha_batch(spec, QUAD, *_batch([clear, clear, close]))
    with pytest.raises(SingularityProximity, match=r"kernel \(0, 1\) at batch row 1 "):
        FirstOrderField(QuadForm.identity(2), QUAD).jet(*_batch([clear, close]))
    with pytest.raises(SingularityProximity, match=r"kernel \(0, 1\) at batch row 1 "):
        alpha_hessian(QuadForm.identity(2), QUAD, *_batch([clear, close]))
    far = BasePoint(np.array([0.5, 1.0, -0.3, 0.2]), 0.4 + 0j)
    close = BasePoint(np.array([1e-6, 1.0, 1.0, 1.0]), 0j)
    with pytest.raises(SingularityProximity, match=r"kernel \(0, 1\) at batch row 1 "
                       r"\(mu = \[1e-06, 1\.0, 1\.0, 1\.0\], eta = 0j\)"):
        alpha_batch(KernelSpec(QuadForm.identity(4), (0, 1)), QUAD, *_batch([far, close]))
    with pytest.raises(SingularityProximity, match=r"kernel \(0, 1\) at batch row 1 "
                       r"\(mu = \[1e-06, 1\.0, 1\.0, 1\.0\], eta = 0j\)"):
        alpha_hessian(QuadForm.identity(4), QUAD, *_batch([far, close]), (0, 1))


def test_non_finite_closed_form_is_refused_by_name(monkeypatch):
    # off the sheet every closed form is finite, so no input reaches this
    # refusal: a nan is planted at one (kernel, row) pair of an N = 3
    # family whose rows all clear the floor.  The engine refuses that
    # pair, and alpha_family names the kernel's labels and the batch row
    import ghlab.quadrature as quadrature

    rng = np.random.default_rng(26)
    A = random_spd(rng, 3)
    mu, eta = _batch([off_locus_point(rng, A) for _ in range(3)])
    fam = _family(A)
    k, row = 4, 1
    wedge = quadrature.wedge_integrals

    def planted(*args, **kwargs):
        out = wedge(*args, **kwargs)
        out[0][k, row] = np.nan
        return out

    monkeypatch.setattr(quadrature, "wedge_integrals", planted)
    with pytest.raises(SingularityProximity, match=f"row {row} gives a value that is "
                                                   "not finite") as exc:
        power_kernel_integral(fam.Q, fam.c_eta, mu, eta, fam.M, fam.power, QUAD,
                              floor=1e-3)
    assert (exc.value.kernel, exc.value.row) == (k, row)
    labels = re.escape(str(fam.labels[k]))
    with pytest.raises(SingularityProximity, match=rf"kernel {labels} at batch row {row} "
                       r".*not finite") as exc:
        alpha_family(A, QUAD, mu, eta, want_gradient=True)
    assert (exc.value.kernel, exc.value.row) == (k, row)


def test_over_budget_names_kernel_and_first_row(monkeypatch):
    # a swept call (N = 4) whose grid exceeds the node budget is refused
    # naming its kernel and the first row of its grid group, as a floor
    # refusal is
    import ghlab.quadrature as quadrature

    monkeypatch.setattr(quadrature, "_MAX_EVALS", 100)
    far = BasePoint(np.array([0.5, 1.0, -0.3, 0.2]), 0.4 + 0j)
    near = BasePoint(np.array([0.5, 1.0, -0.3, 0.2]), 0.41 + 0j)
    with pytest.raises(QuadratureError, match=r"kernel \(1, 3\) at batch row 0 "
                       r"\(mu = \[0\.5, 1\.0, -0\.3, 0\.2\], eta = \(0\.4\+0j\)\): "
                       r"panel grid needs \d+ evaluations per point, budget is 100"):
        alpha_batch(KernelSpec(QuadForm.identity(4), (1, 3)), QUAD, *_batch([far, near]))


@pytest.mark.parametrize("N, members", [(2, None), (2, (0, 1, 2)), (3, None),
                                        (3, (0, 1, 3)), (3, (0, 2))])
def test_family_batch_matches_one_kernel_calls(N, members):
    # a form's kernels, stacked into one engine call (d = 2, 1 or 0 here),
    # give what each kernel's own call gives: value and gradient to
    # roundoff, error and grid nodes exactly; with ``members`` the form is
    # that subset's reduction, at its batch
    rng = np.random.default_rng(61 + N)
    A = random_spd(rng, N)
    mu, eta = _batch([off_locus_point(rng, A) for _ in range(5)])
    if members is not None:
        red = reduction(A, IndexSet(members))
        A, (mu, eta) = red.G, red.batch(mu, eta)
    labels, kv = alpha_family(A, QUAD, mu, eta, want_gradient=True)
    assert labels == tuple(itertools.combinations(range(A.n + 1), 2))
    evals = 0
    for k, ij in enumerate(labels):
        _, one = alpha_family(A, QUAD, mu, eta, True, ij)
        np.testing.assert_allclose(kv.value[k], one.value[0], rtol=1e-14, atol=0)
        np.testing.assert_array_equal(kv.error[k], one.error[0])
        np.testing.assert_allclose(kv.gradient[k], one.gradient[0], rtol=1e-14,
                                   atol=1e-14 * float(np.max(np.abs(one.gradient))))
        evals += one.evals
    assert kv.evals == evals == len(labels) * len(mu)


def test_alpha_grad_after_a_jet_builds_no_frame(monkeypatch):
    # a form's engine data (cone matrices, Cholesky factor, wedge frames)
    # is built once: a jet builds it, and one-kernel calls on the same
    # form after it reuse it; another form builds its own
    from ghlab import quadrature

    built = []
    build = quadrature._Wedge.build.__func__
    monkeypatch.setattr(quadrature._Wedge, "build",
                        classmethod(lambda cls, *a: built.append(1) or build(cls, *a)))
    rng = np.random.default_rng(71)
    A = random_spd(rng, 3)
    p = off_locus_point(rng, A)
    FirstOrderField(A, QUAD).jet(p.mu[None], np.array([p.eta]))
    assert len(built) == 1
    for ij in itertools.combinations(range(4), 2):
        alpha_grad(KernelSpec(A, ij), QUAD, p)
        alpha(KernelSpec(A, ij), QUAD, p)
    assert len(built) == 1
    alpha_grad(KernelSpec(QuadForm(A.entries), (0, 1)), QUAD, p)
    assert len(built) == 2


def test_one_kernel_calls_keep_one_family_with_the_form():
    # a one-kernel call slices its kernel from the form's family per call,
    # so the six kernels at N = 3 leave the one six-kernel family behind
    from ghlab.kernels import _Family

    rng = np.random.default_rng(72)
    A = random_spd(rng, 3)
    p = off_locus_point(rng, A)
    for ij in itertools.combinations(range(4), 2):
        alpha_grad(KernelSpec(A, ij), QUAD, p)
    kept = [fam for fam in A._derived.values() if isinstance(fam, _Family)]
    assert [len(fam.labels) for fam in kept] == [6]


def test_layouts_are_built_once_per_n():
    # what a family, a gamma family or a stratum table takes from N and the
    # labels alone is laid out for the first form of an N and read by every
    # later one, and no caller can write it
    from ghlab import holo, locus

    caches = [kernels._layout, holo._gamma_layout, locus._layout]
    for cache in caches:
        cache.cache_clear()
    rng = np.random.default_rng(73)
    I = IndexSet((0, 1, 3))

    def build(A):
        p = off_locus_point(rng, A)
        mu, eta = p.mu[None], np.array([p.eta])
        FirstOrderField(A, QUAD).jet(mu, eta)
        alpha_family(A, QUAD, mu, eta)
        holo.gamma_family(holo.GammaSpec(A, I, QUAD), (0, 1, 3), mu, eta)
        locus.region_membership(A, locus.RegionConstants(), p)
        return [cache.cache_info() for cache in caches]

    first = build(random_spd(rng, 3))
    assert all(info.misses > 0 for info in first)
    second = build(random_spd(rng, 3))
    assert [info.misses for info in second] == [info.misses for info in first]
    assert all(b.hits > a.hits for a, b in zip(first, second))
    cached = [*kernels._layout(3), *kernels._layout(2),
              *holo._gamma_layout(2, (0, 1, 2)), *vars(locus._layout(3)).values()]
    arrays = [a for a in cached if isinstance(a, np.ndarray)]
    assert len(arrays) > 10 and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_cached_cone_matrices_match_a_per_pair_construction(N):
    # on the slots S = (1..N), kernel (i, j) has the cone column
    # -(1, ..., 1) when i > 0, then the unit vector of each slot off
    # {i, j}; gamma_0's kernels are (0, k) for k in S with the ray
    # (1, ..., 1), gamma_i's are (0, i) and (i, k) for k != i in S with the
    # ray -e_i.  A subset's kernels and gammas are those of its reduction,
    # laid out at N' < N.
    from ghlab import holo

    def cone(S, i, j, ray=()):
        E = np.eye(len(S))
        cols = [-np.ones(len(S))] * (i > 0) + [E[S.index(c)] for c in S if c not in (i, j)]
        return np.array(cols + list(ray)).reshape(-1, len(S)).T.tolist()

    S = tuple(range(1, N + 1))
    pairs, M = kernels._layout(N)
    assert pairs == tuple((i, j) for i in range(N + 1) for j in range(i + 1, N + 1))
    assert [M[k].tolist() for k in range(len(pairs))] == [cone(S, *ij) for ij in pairs]
    want_pairs, want_M = [], []
    for g in (0,) + S:
        ray = np.ones(N) if g == 0 else -np.eye(N)[g - 1]
        ks = ([(0, k) for k in S] if g == 0
              else [(0, g)] + [(min(g, k), max(g, k)) for k in S if k != g])
        want_pairs += ks
        want_M += [cone(S, *ij, ray=[ray]) for ij in ks]
    g_pairs, g_M = holo._gamma_layout(N, (0,) + S)
    assert list(g_pairs) == want_pairs
    assert [m.tolist() for m in g_M] == want_M


@pytest.mark.parametrize("N", [1, 2, 3])
def test_closed_form_rows_do_not_depend_on_their_batch(N):
    # each closed-form row (values, gradients and Hessians of the family,
    # and the gammas at N = 2) is bitwise the row computed alone: every
    # contraction with a row sums in one order, where a BLAS product picks
    # its kernel, and so its rounding, by the batch's shape
    for seed in range(20):
        rng = np.random.default_rng(1000 * N + seed)
        A = random_spd(rng, N)
        mu, eta = _batch([checks.random_point(rng, N) for _ in range(5)])
        _, kv = alpha_family(A, QUAD, mu, eta, True)
        _, grad, hess = alpha_hessian(A, QUAD, mu, eta)
        gam = None
        if N == 2:
            spec = GammaSpec(A, IndexSet((0, 1, 2)), checks.GAMMA_QUAD)
            gam = gamma_family(spec, (0, 1, 2), mu, eta).value
        for b in range(5):
            row = slice(b, b + 1)
            _, one = alpha_family(A, QUAD, mu[row], eta[row], True)
            _, g1, h1 = alpha_hessian(A, QUAD, mu[row], eta[row])
            for x, y in ((kv.value, one.value), (kv.gradient, one.gradient), (grad, g1),
                         (hess, h1)):
                assert x[:, row].tobytes() == y.tobytes()
            if gam is not None:
                assert gam[:, row].tobytes() == gamma_family(spec, (0, 1, 2), mu[row],
                                                             eta[row]).value.tobytes()


def test_harmonicity_of_kernel_n2():
    # criterion 04's residual on the exact Hessians: the anisotropic
    # Laplacian of the kernel vanishes away from the sheet, to roundoff
    A = QuadForm(np.array([[1.4, 0.3], [0.3, 1.0]]))
    spec = KernelSpec(A, (0, 1))
    p = BasePoint(np.array([0.8, -0.6]), 0.7 + 0.2j)
    assert checks.kernel_laplacian(spec, [p]) < 1e-13


def _hessian_case(N, seed):
    """A form of N coordinates and one off-locus point from ``seed``, as
    the criteria draw them, with the point as a row x (N + 2,)."""
    rng = np.random.default_rng(seed)
    A = random_spd(rng, N)
    return A, off_locus_point(rng, A).as_vector()


# the suite's reach seed (test_frame.py's N = 4 and 5 points) and 20 more
HESSIAN_SEEDS = (404,) + tuple(range(900, 920))


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_alpha_hessian_identities(N):
    # every kernel of a form is V_p of homogeneity d - p = -1 in x, harmonic
    # for Q'^-1 = diag(A^-1, I_2 / det A); so its exact Hessian H is
    # symmetric, H x = -2 grad V (Euler) and tr(Q'^-1 H) = 0, each to
    # roundoff of the largest term of its row (a swept gradient's error is
    # normwise, not per entry).  Any of the three assembly terms of H
    # scaled by 1 + 1e-9 reads 1e-9 or more in one identity at each N
    worst = np.zeros(3)
    for seed in HESSIAN_SEEDS:
        A, x = _hessian_case(N, seed)
        labels, grad, hess = alpha_hessian(A, QUAD, *batch_from_vectors(x[None]))
        assert labels == _family(A).labels and hess.shape == (len(labels), 1, N + 2, N + 2)
        H, g = hess[:, 0], grad[:, 0]
        mu_terms, eta_part = laplace_terms(A, H)
        euler_scale = np.maximum(np.abs(H * x).max(axis=(1, 2)), np.abs(g).max(axis=1))
        worst = np.maximum(worst, [
            (np.abs(H - H.swapaxes(1, 2)).max(axis=(1, 2)) / np.abs(H).max(axis=(1, 2))).max(),
            (np.abs(H @ x + 2.0 * g).max(axis=1) / euler_scale).max(),
            (np.abs(mu_terms.sum(axis=1) + eta_part)
             / np.maximum(np.abs(mu_terms).max(axis=1), np.abs(eta_part))).max()])
    assert worst.max() <= 1e-13, worst


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("labels", [(0, 1), (1, 2)], ids=["axis", "pair"])
def test_alpha_hessian_matches_central_difference(N, labels):
    # the gradient of the face route is the engine's to roundoff, and the
    # central difference of the engine's gradient at steps h and h / 2
    # errs by about h^2 / 6 and h^2 / 24 times a third derivative, so
    # |D_h - D_(h/2)|, about three times the error of D_(h/2), bounds it
    A, x = _hessian_case(N, HESSIAN_SEEDS[0])
    h = 1e-3 * max(1.0, np.abs(x).max())

    def gradients(rows):
        return alpha_family(A, QUAD, *batch_from_vectors(rows), True, labels)[1].gradient[0]

    _, grad, hess = alpha_hessian(A, QUAD, *batch_from_vectors(x[None]), labels)
    g = gradients(x[None])[0]
    assert np.abs(grad[0, 0] - g).max() <= 1e-13 * np.abs(g).max()
    H = hess[0, 0].T                       # [k, j] = d_k of gradient entry j
    D_h, D_h2 = (central_difference(gradients, x, step) for step in (h, 0.5 * h))
    err, bound = np.abs(H - D_h2).max(), np.abs(D_h - D_h2).max()
    assert err <= bound <= 1e-4 * np.abs(H).max()


def test_bump_laplacian_matches_fd():
    # the bump's closed-form Laplacian against a central difference of
    # central differences of its values, whose error is O(h^2)
    A = QuadForm(np.array([[1.3, 0.2], [0.2, 0.9]]))
    bump = RadialBump(np.array([0.3, -1.2]), 1.7, 1.1)
    rng = np.random.default_rng(0)

    def values(v):
        return bump.value(v[:, :2], np.hypot(v[:, 2], v[:, 3]))

    for _ in range(10):
        mu = bump.center + rng.uniform(-1, 1, 2)
        r = rng.uniform(0.05, 0.9)
        p = BasePoint(mu, r * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        got = bump.laplace_A(A, p.mu[None], np.array([abs(p.eta)]))[0]
        H = central_difference(
            lambda rows: np.stack([central_difference(values, v, 1e-3) for v in rows]),
            p.as_vector(), 1e-3)
        mu_terms, eta_part = laplace_terms(A, H)
        want = float(np.sum(mu_terms)) + eta_part
        assert got == pytest.approx(want, abs=5e-4 * max(1.0, abs(want)))


def test_bump_support():
    bump = RadialBump(np.array([1.0, 0.0]), 0.5, 0.5)
    out, inside = bump.value(np.array([[2.0, 0.0], [1.1, 0.1]]), np.array([0.1, 0.1]))
    assert out == 0.0
    assert inside > 0.0


@pytest.mark.parametrize("labels,center", [
    ((0, 1), (0.0, 2.0)),
    ((1, 2), (-3.0, -3.0)),
    ((0, 2), (2.0, -1.2)),   # the sheet off centre: clipped to the support's edge
])
def test_weak_distributional_charge(labels, center):
    A = QuadForm(np.array([[1.3, 0.2], [0.2, 0.9]]))
    bump = RadialBump(np.array(center), 1.5, 1.2)
    res = weak_distributional_check(A, labels, bump, QuadratureSpec(abs_tol=1e-8))
    assert res.rel_gap < 1e-5
    assert res.lhs != 0.0


def test_weak_check_gap_falls_as_the_rule_is_refined(monkeypatch):
    # the polar rule, not the identity, limits the gap: at order 16 with
    # half the t panels the worst gap is at least 10 times the shipped
    # one, so an engine regression near the sheet would show here
    shipped = max(res.rel_gap for res in checks.weak_charge_checks())
    monkeypatch.setattr(kernels, "_WEAK_ORDER", 16)
    monkeypatch.setattr(kernels, "_WEAK_T_PANELS", kernels._WEAK_T_PANELS // 2)
    coarse = max(res.rel_gap for res in checks.weak_charge_checks())
    assert shipped <= 1e-6
    assert coarse >= 10.0 * shipped


def test_weak_check_cone_integral_converges():
    # the rhs integrates the bump along the kernel's own cone column on
    # the bump's exact support; adaptive quadrature over a wider interval
    # is the reference, for the shipped bumps, a cone cut at t = 0, one
    # off-centre pair cone and one that misses the bump
    from scipy import integrate

    A = QuadForm(np.array(WEAK_FORM_N2))
    cases = [(labels, center, r_mu) for labels, center, r_mu, _ in WEAK_BUMPS_N2]
    cases += [((0, 1), (-0.5, 0.3), 1.5), ((1, 2), (-2.0, -1.0), 1.0),
              ((1, 2), (1.0, 1.5), 1.0)]
    for labels, center, r_mu in cases:
        bump = RadialBump(np.array(center), r_mu, 1.0)
        m = _engine_data(A, labels)[2][:, 0]
        want = integrate.quad(lambda t: bump.value((t * m)[None], np.zeros(1))[0],
                              0.0, 20.0, limit=500, epsabs=1e-15,
                              epsrel=1e-13)[0]
        assert _cone_integral(bump, m) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_weak_check_far_bump_both_sides_vanish():
    # no stratum under the bump: the rhs is exactly zero and the lhs is
    # pure quadrature noise on a cancelling integrand
    A = QuadForm.identity(2)
    bump = RadialBump(np.array([40.0, 40.0]), 1.0, 1.0)
    res = weak_distributional_check(A, (0, 1), bump, QuadratureSpec(abs_tol=1e-8))
    assert abs(res.lhs) < 1e-6
    assert res.rhs == pytest.approx(0.0, abs=1e-12)
    # the sheet misses the support at every y1 node, so the empty sector
    # beside it is skipped: 2 of 3 sectors, 144 y1 nodes x 96 angles x 96 t
    assert res.alpha_evals == 144 * 96 * 96 == 1_327_104


def test_weak_check_refuses_n3():
    # the check is built for N = 2, where its kernel is one engine call per
    # y1 node; at N = 3 it would evaluate its grid point by point
    bump = RadialBump(np.array([0.0, 2.0, 1.0]), 1.5, 1.2)
    with pytest.raises(ValueError):
        weak_distributional_check(QuadForm.identity(3), (0, 1), bump, QUAD)
