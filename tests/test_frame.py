import numpy as np
import pytest

from ghlab import checks
from ghlab.geometry import BasePoint, QuadForm
from ghlab.ansatz import FirstOrderField
from ghlab.frame import integrability_batch, integrability_residual
from ghlab.quadrature import QuadratureSpec

QUAD = QuadratureSpec()


class PerturbedField:
    """A field with an explicit smooth perturbation added to V: extra(mu)
    is the stacked matrix (B, N, N) added at the batch mu, independent of
    eta, and extra_grad(mu) its gradient (B, N, N, N + 2) over (mu, Re eta,
    Im eta), whose eta columns are 0."""

    def __init__(self, base, extra, extra_grad) -> None:
        self.base = base
        self.extra = extra
        self.extra_grad = extra_grad

    def jet(self, mu, eta, want_gradient=True):
        jet = self.base.jet(mu, eta, want_gradient)
        jet.V = jet.V + self.extra(mu)
        if want_gradient:
            jet.dV = jet.dV + self.extra_grad(mu)
        return jet


@pytest.mark.parametrize("N", [2, 3, 4])
def test_empty_batch_gives_empty_residuals(N):
    # a batch of no points gives (2, 0) residuals and scales, as the field
    # jet it differences gives empty arrays
    fld = FirstOrderField(checks.random_spd(np.random.default_rng(N), N), QUAD)
    res, scale = integrability_batch(fld, np.zeros((0, N)), np.zeros(0, dtype=complex))
    assert res.shape == scale.shape == (2, 0)


def test_integrability_residual_small():
    A = QuadForm(np.array([[1.6, 0.3], [0.3, 1.1]]))
    fld = FirstOrderField(A, QUAD)
    p = BasePoint(np.array([0.7, -0.9]), 0.8 + 0.3j)
    res = integrability_residual(fld, p)
    assert res.first_relative < 1e-10
    assert res.second_relative < 1e-4


def test_second_identity_at_steep_point():
    # criterion 12's tolerance at the field-n3 point (seed 941, pool entry
    # 91) where a Richardson step four times larger left a residual of
    # 1.99e-3: the truncation error is O(h^4), the quadrature noise far less
    A = QuadForm(np.array([
        [1.308218426976135, -0.37032655691394134, 0.10135071913064905],
        [-0.37032655691394134, 1.766972205417877, -0.1313999995645675],
        [0.10135071913064905, -0.1313999995645675, 1.5446463876643632]]))
    p = BasePoint(np.array([1.9397654457940865, 1.5692390520581516,
                            -0.3243191926934874]),
                  -0.23275574166144897 - 0.21821198594112826j)
    res = integrability_residual(FirstOrderField(A, checks.QUAD), p)
    assert res.first_relative <= checks.INTEGRABILITY_TOL
    assert res.second_relative <= checks.INTEGRABILITY_TOL


def _field_identities(N: int, monkeypatch) -> tuple[int, int]:
    """Reach: the N-dimensional first-order field holds the identities of
    criteria 12 and 04 at their tolerance, at one off-locus point.  Returns
    the grid nodes that criterion 12 swept there and the wedge edges it
    sent to the far-edge rule."""
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
    first, second = checks.integrability_gap(A, [p])
    monkeypatch.undo()
    assert first <= checks.INTEGRABILITY_TOL
    assert second <= checks.INTEGRABILITY_TOL
    assert max(checks.gradient_relations(A, [p])) <= checks.HARMONIC_TOL
    return nodes[0], edges[0]


def test_n4_field_identities(monkeypatch):
    _field_identities(4, monkeypatch)


def test_n5_field_identities(monkeypatch):
    # two swept axes per kernel on the radial grid; only edges whose
    # difference would cancel reach the far-edge rule
    nodes, edges = _field_identities(5, monkeypatch)
    assert nodes <= 3e7
    assert edges == 662706


def test_perturbed_field_breaks_first_identity():
    # corrupt V_12 by mu_3: the mu-gradient symmetry fails at order one
    A = QuadForm.identity(3)
    base = FirstOrderField(A, QUAD)

    def extra(mu):
        E = np.zeros((len(mu), 3, 3))
        E[:, 0, 1] = E[:, 1, 0] = mu[:, 2]
        return E

    def extra_grad(mu):
        dE = np.zeros((len(mu), 3, 3, 5))
        dE[:, 0, 1, 2] = dE[:, 1, 0, 2] = 1.0
        return dE

    bad = PerturbedField(base, extra, extra_grad)
    p = BasePoint(np.array([1.0, 0.8, 1.2]), 0.7 + 0.1j)
    res_bad = integrability_residual(bad, p)
    res_good = integrability_residual(base, p)
    assert res_bad.first_relative > 100.0 * res_good.first_relative
    assert res_bad.first > 0.5
