import numpy as np
import pytest

from ghlab import checks, frame
from ghlab.geometry import BasePoint, QuadForm
from ghlab.ansatz import FirstOrderField
from ghlab.frame import integrability_batch, integrability_residual
from ghlab.quadrature import QuadratureSpec

QUAD = QuadratureSpec()


@pytest.mark.parametrize("N", [2, 3, 4])
def test_empty_batch_gives_empty_residuals(N):
    # a batch of no points gives (2, 0) residuals and scales, as the field
    # jet it differences gives empty arrays
    fld = FirstOrderField(checks.random_spd(np.random.default_rng(N), N), QUAD)
    res, scale, V, grad = integrability_batch(fld, np.zeros((0, N)), np.zeros(0, dtype=complex))
    assert res.shape == scale.shape == (2, 0) and V.shape == (N * (N + 1) // 2, 0)
    assert grad.shape == (N * (N + 1) // 2, 0, N + 2)


def test_integrability_residual_small():
    A = QuadForm(np.array([[1.6, 0.3], [0.3, 1.1]]))
    fld = FirstOrderField(A, QUAD)
    p = BasePoint(np.array([0.7, -0.9]), 0.8 + 0.3j)
    res = integrability_residual(fld, p)
    assert res.first_relative < 1e-13
    assert res.second_relative < 1e-13


def test_second_identity_at_steep_point():
    # the field-n3 point (seed 941, pool entry 91) where a Richardson
    # stencil of analytic gradients read 7.7e-6, and 1.99e-3 at four times
    # its step, all of it truncation error: the exact Hessians read roundoff
    A = QuadForm(np.array([
        [1.308218426976135, -0.37032655691394134, 0.10135071913064905],
        [-0.37032655691394134, 1.766972205417877, -0.1313999995645675],
        [0.10135071913064905, -0.1313999995645675, 1.5446463876643632]]))
    p = BasePoint(np.array([1.9397654457940865, 1.5692390520581516,
                            -0.3243191926934874]),
                  -0.23275574166144897 - 0.21821198594112826j)
    res = integrability_residual(FirstOrderField(A, checks.QUAD), p)
    assert res.first_relative <= 1e-13
    assert res.second_relative <= 1e-13


def _field_identities(N: int, monkeypatch) -> tuple[int, int]:
    """Reach: the N-dimensional first-order field holds the identities of
    criteria 12 and 04 at their tolerance, at one off-locus point.  Returns
    the grid nodes of criterion 12's engine calls there and the wedge edges
    they sent to the far-edge rule."""
    import ghlab.kernels as kernels
    import ghlab.quadrature as quadrature

    rng = np.random.default_rng(404)
    A = checks.random_spd(rng, N)
    p = checks.off_locus_point(rng, A)
    engine, rule, nodes, edges = kernels.power_kernel_integral, quadrature._edge_rule, [0], [0]

    def counted(*args, **kwargs):
        res = engine(*args, **kwargs)
        nodes[0] += res.evals
        return res

    def ruled(theta, *args):
        edges[0] += theta.size
        return rule(theta, *args)

    monkeypatch.setattr(kernels, "power_kernel_integral", counted)
    monkeypatch.setattr(quadrature, "_edge_rule", ruled)
    first, second, euler = checks.integrability_gap(A, [p])
    monkeypatch.undo()
    assert first <= checks.INTEGRABILITY_TOL
    assert second <= checks.INTEGRABILITY_TOL
    assert euler <= 1e-12          # roundoff, far under the swept terms' budget
    assert max(checks.gradient_relations(A, [p])) <= checks.HARMONIC_TOL
    return nodes[0], edges[0]


def test_n4_field_identities(monkeypatch):
    _field_identities(4, monkeypatch)


def test_n5_field_identities(monkeypatch):
    # criterion 12 sweeps two axes per kernel for the 15 cones at p,
    # p + 2 and p + 4, the Euler row's values at p among them, on one grid
    # each (465,920 nodes), and one axis for their 20 distinct faces at p
    # and p + 2 (5,112); the 15 four-label strata are closed forms (15),
    # each one row; only edges whose difference would cancel reach the
    # far-edge rule.  The stencil's 29 rows took 13,511,680 nodes and sent
    # 662,706 edges to the rule
    nodes, edges = _field_identities(5, monkeypatch)
    assert nodes == 471047
    assert edges == 101865


def test_perturbed_field_breaks_first_identity(monkeypatch):
    # corrupt the kernel alpha_12 by -mu_3, so V_12 gains mu_3 (and V_11,
    # V_22 lose it), a term linear in mu with no Hessian: the mu-gradient
    # symmetry fails at order one
    A = QuadForm.identity(3)
    fld = FirstOrderField(A, QUAD)
    p = BasePoint(np.array([1.0, 0.8, 1.2]), 0.7 + 0.1j)
    res_good = integrability_residual(fld, p)
    hessian = frame.alpha_hessian

    def perturbed(*args):
        labels, V, grad, hess = hessian(*args)
        grad[labels.index((1, 2)), :, 2] -= 1.0
        return labels, V, grad, hess

    monkeypatch.setattr(frame, "alpha_hessian", perturbed)
    res_bad = integrability_residual(fld, p)
    assert res_bad.first_relative > 100.0 * res_good.first_relative
    assert res_bad.first > 0.5
