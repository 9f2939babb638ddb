"""A stratum model is its reduction's whole model, one dimension or more
down: the reduced route against the model on A's own coordinates in
``tests/oracles.py``, the reduction's own data against identities that do
not pass through it, and the work each reduced path does."""

import itertools

import numpy as np
import pytest

from ghlab import holo
from ghlab.ansatz import RestrictedField
from ghlab.checks import off_locus_point, random_point, random_spd
from ghlab.geometry import BasePoint, IndexSet, block, reduction
from ghlab.holo import GammaSpec
from ghlab.kernels import KernelSpec, alpha_batch, alpha_family, closed_form_axis
from ghlab.quadrature import QuadratureSpec, SingularityProximity
from oracles import restricted_gammas, restricted_jet, restricted_kernels

QUAD = QuadratureSpec(abs_tol=1e-11)


def _subsets(N):
    """Every subset holding 0, at least one active label and one inactive."""
    return [(0,) + S for k in range(1, N) for S in itertools.combinations(range(1, N + 1), k)]


def _gap(got, want, axis=None):
    """Largest |got - want| over the largest |want| along ``axis`` (all of
    want when None, each entry when ())."""
    scale = np.abs(want) if axis == () else np.abs(want).max(axis=axis, keepdims=True)
    return float(np.max(np.abs(got - want) / scale))


CASES = ([(3, I) for I in _subsets(3)] + [(4, I) for I in _subsets(4)]
         + [(5, (0, 1, 3, 5)), (5, (0, 2, 3, 4, 5))])


@pytest.mark.parametrize("N, members", CASES, ids=[f"n{N}-{''.join(map(str, I))}"
                                                   for N, I in CASES])
def test_reduced_route_is_the_model_on_a(N, members):
    # kernels with their gradients, the field's v and dV, and the gammas of
    # I's model on A, taken through G = schur_complement(A, I) at
    # (mu_I, s eta), against the same quantities integrated on A's
    # coordinates with det A as the fiber weight.  Up to n = 3 active
    # labels the kernels are closed forms; at n = 4 they sweep, as the
    # gammas do from n = 3.  A swept pair lies within both routes' error
    # estimates, and as both take the same grids (the same node counts)
    # everything agrees to 1e-14 here (at most 9e-16 when written)
    rng = np.random.default_rng(400 + 10 * N + len(members))
    A = random_spd(rng, N)
    I = IndexSet(members)
    red = reduction(A, I)
    pts = [off_locus_point(rng, A) for _ in range(2 if N == 5 else 3)]
    mu, eta = np.array([p.mu for p in pts]), np.array([p.eta for p in pts])

    labels, kv = alpha_family(red.G, QUAD, *red.batch(mu, eta), want_gradient=True)
    want_labels, want = restricted_kernels(A, I, QUAD, mu, eta, want_gradient=True)
    assert [(members[i], members[j]) for i, j in labels] == want_labels
    grad = np.zeros_like(want.gradient)
    grad[..., [*red.slots, N, N + 1]] = kv.gradient
    grad[..., N:] *= red.s
    assert kv.evals == want.evals
    swept = kv.error > 0
    assert np.all(np.abs(kv.value - want.value)[swept] <= (kv.error + want.error)[swept])
    assert _gap(kv.value, want.value, ()) <= 1e-14
    assert _gap(grad, want.gradient, axis=2) <= 1e-14

    jet = RestrictedField(A, I, QUAD).jet(mu, eta)
    assert _gap(jet.v, restricted_jet(A, I, QUAD, mu, eta)) <= 1e-14

    spec = GammaSpec(A, I, QUAD)
    gam = holo.gamma_family(spec, members, mu, eta)
    ref = restricted_gammas(spec, members, mu, eta)
    assert gam.evals == ref.evals
    swept = gam.error > 0
    assert np.all(np.abs(gam.value - ref.value)[swept] <= (gam.error + ref.error)[swept])
    assert _gap(gam.value, ref.value, ()) <= 1e-14


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_reduction_pins_that_do_not_pass_through_it(N):
    # s^2 is the determinant of A's block off I (the Schur determinant
    # identity), and G's spectrum lies inside A's: G^{-1} is a principal
    # submatrix of A^{-1}, so Cauchy interlacing holds it there
    rng = np.random.default_rng(500 + N)
    worst = 0.0
    for _ in range(50):
        A = random_spd(rng, N)
        lam = np.linalg.eigvalsh(A.entries)
        for k in range(1, N):
            for S in itertools.combinations(range(1, N + 1), k):
                I = IndexSet((0,) + S)
                red = reduction(A, I)
                comp = I.active_complement(N)
                D = float(np.linalg.det(block(A.entries, comp, comp)))
                worst = max(worst, abs(red.s ** 2 - D) / D)
                g = np.linalg.eigvalsh(red.G.entries)
                assert lam[0] * (1 - 1e-12) <= g[0] and g[-1] <= lam[-1] * (1 + 1e-12)
                assert red.slots.tolist() == [a - 1 for a in S]
    assert worst <= 1e-13


def test_reduced_paths_build_one_reduction_and_make_one_engine_call(monkeypatch):
    # deterministic work counts: on a fresh N = 2 form, the sum rule on
    # (0, 1) and a fixed-eta log_z leg on (0, 1) build the reduction once
    # between them and make one engine call each; on a fresh N = 3 form
    # the model field of (0, 1, 2) makes one engine call
    import ghlab.geometry as geometry
    import ghlab.kernels as kernels

    built, calls = [], []
    schur, engine = geometry.schur_blocks, kernels.power_kernel_integral
    monkeypatch.setattr(geometry, "schur_blocks", lambda M, a: built.append(a) or schur(M, a))
    monkeypatch.setattr(kernels, "power_kernel_integral",
                        lambda *a, **k: calls.append(1) or engine(*a, **k))
    rng = np.random.default_rng(600)
    A, I = random_spd(rng, 2), IndexSet((0, 1))
    p = random_point(rng, 2)
    holo.gamma_sum_check(GammaSpec(A, I, QUAD), p)
    assert len(calls) == 1
    ref = BasePoint(np.array([2.0 + abs(p.mu[0]), p.mu[1]]), p.eta)
    holo.log_z(A, I, QUAD, p, basepath=[ref, p])
    assert len(calls) == 2 and built == [1]

    A3 = random_spd(rng, 3)
    p3 = random_point(rng, 3)
    RestrictedField(A3, IndexSet((0, 1, 2)), QUAD).jet(p3.mu[None], np.array([p3.eta]))
    assert len(calls) == 3 and built == [1, 2]


def test_a_reduced_family_takes_the_floor_of_its_own_n():
    # the resolution floor 10 abs_tol^(1/N) reads the width of the batch the
    # engine sees, so a model's kernels take that of their reduction, N':
    # 1e-6 from the sheet of kernel (0, 1), A's own kernel at N = 3 is
    # refused (floor 2.2e-3), while the model of (0, 1) is evaluated there
    # (N' = 1, floor 1e-10) and matches its closed form
    A = random_spd(np.random.default_rng(700), 3)
    p = BasePoint(np.array([0.0, 1.0, 1.0]), 1e-6j)
    mu, eta = p.mu[None], np.array([p.eta])
    with pytest.raises(SingularityProximity, match=r"kernel \(0, 1\) at batch row 0"):
        alpha_batch(KernelSpec(A, (0, 1)), QUAD, mu, eta)
    jet = RestrictedField(A, IndexSet((0, 1)), QUAD).jet(mu, eta)
    assert jet.v[0, 0, 0] == pytest.approx(closed_form_axis(A, 1, p), rel=1e-12)
