"""Metric data of the ansatz in an adapted orthogonal frame.

For coefficient data (V, W) the metric splits into three orthogonal
blocks: V on the base mu-directions, V^{-1} on the torus fiber, and W
times the identity on the two horizontal eta-directions.  The volume
density is therefore the scalar W squared regardless of V, and the
structure is integrable precisely when the mu-gradients of V are
symmetric in the lower index pair and the fiber curvature is closed.
The connection form is never built globally; every check here is a
pointwise identity on derivatives of (V, W).  The second identity passes
the Richardson stencil around a point to the field's ``jet`` as one batch
of arrays (mu, eta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (BasePoint, batch_from_vectors, fd_gradient, gradient_step,
                       richardson_derivative, richardson_stencil)

__all__ = [
    "FramePoint",
    "frame_at",
    "CyResidual",
    "cy_residual",
    "IntegrabilityResidual",
    "integrability_residual",
    "CurvatureSample",
    "curvature_F",
    "grad_norm",
    "volume_ratio",
]


@dataclass
class FramePoint:
    """Gram matrix of the adapted frame at one point.

    Block order: N mu-directions, N fiber directions, Re eta, Im eta.
    """

    point: BasePoint
    V: np.ndarray
    W: float
    gram: np.ndarray

    def det_identity_gap(self) -> float:
        """det(gram) - W^2, which vanishes identically for SPD V."""
        return float(np.linalg.det(self.gram) - self.W ** 2)


def frame_at(field, p: BasePoint) -> FramePoint:
    """Assemble the frame Gram matrix from the coefficient field."""
    jet = field.at(p)
    N = jet.V.shape[0]
    gram = np.zeros((2 * N + 2, 2 * N + 2))
    gram[:N, :N] = jet.V
    gram[N:2 * N, N:2 * N] = np.linalg.inv(jet.V)
    gram[2 * N, 2 * N] = jet.W
    gram[2 * N + 1, 2 * N + 1] = jet.W
    return FramePoint(p, jet.V, jet.W, gram)


@dataclass
class CyResidual:
    raw: float          # det V - W
    normalized: float   # det V / W - 1


def cy_residual(field, p: BasePoint) -> CyResidual:
    """Volume identity defect of the coefficient data at one point."""
    jet = field.at(p)
    detV = float(np.linalg.det(jet.V))
    return CyResidual(detV - jet.W, detV / jet.W - 1.0)


def volume_ratio(fp: FramePoint) -> float:
    """sqrt(det gram) / det V; the reciprocal of (1 + normalized defect)."""
    return float(np.sqrt(np.linalg.det(fp.gram)) / np.linalg.det(fp.V))


@dataclass
class IntegrabilityResidual:
    """Maximal defects of the two pointwise integrability identities.

    first: symmetry of the mu-gradient of V in its lower pair;
    second: the mu-Hessian of W plus the horizontal Laplacian of V.
    Scales hold the largest constituent magnitude for normalization.
    """

    first: float
    second: float
    first_scale: float
    second_scale: float
    point: BasePoint

    @property
    def first_relative(self) -> float:
        return self.first / max(self.first_scale, 1e-300)

    @property
    def second_relative(self) -> float:
        return self.second / max(self.second_scale, 1e-300)


def _second_identity(field, p: BasePoint) -> tuple[object, np.ndarray, float]:
    """The jet at p, and d^2 W / dmu_i dmu_j + (V_ij)_xx + (V_ij)_yy with
    its scale, from gradient jets on the Richardson stencil at p."""
    N = p.N
    x = p.as_vector()
    h = gradient_step(x)
    mu, eta = batch_from_vectors(richardson_stencil(x, h))
    jets = field.jet(mu, eta, want_gradient=True)
    dW = np.array([j.dW[:N] for j in jets])
    dV_eta = np.array([j.dV_eta for j in jets])
    # dW/dmu, then (V_ij)_x = 2 Re dV_ij/deta and (V_ij)_y = -2 Im dV_ij/deta
    d = richardson_derivative(np.concatenate(
        [dW[:, None], 2.0 * dV_eta.real, -2.0 * dV_eta.imag], axis=1), h)
    hessW = 0.5 * (d[:N, 0] + d[:N, 0].T)
    vxx, vyy = d[N, 1:N + 1], d[N + 1, N + 1:]
    scale = max(float(np.max(np.abs(hessW))), float(np.max(np.abs(vxx + vyy))))
    return jets[0], hessW + vxx + vyy, scale


def integrability_residual(field, p: BasePoint) -> IntegrabilityResidual:
    """Evaluate both integrability identities at a point.

    The first identity uses the field's analytic mu-gradient of V directly;
    the second differences the analytic gradients once on the Richardson
    stencil, with ``geometry.gradient_step``.
    """
    jet, expr, scale = _second_identity(field, p)
    first = float(np.max(np.abs(jet.dV - np.transpose(jet.dV, (0, 2, 1)))))
    first_scale = max(float(np.max(np.abs(jet.dV))), 1e-300)
    return IntegrabilityResidual(first, float(np.max(np.abs(expr))),
                                 first_scale, scale, p)


@dataclass
class CurvatureSample:
    """Components of the fiber curvature two-forms at a point.

    For each lower index j: coeff_eta_etabar is the dEta wedge dEtaBar
    coefficient divided by sqrt(-1), coeff_mu_eta[i] the dMu_i wedge dEta
    coefficient (its conjugate sits on dMu_i wedge dEtaBar with a sign).
    closure_residual is the maximal defect of d F_j = 0, which reduces to
    the same expression as the second integrability identity.
    """

    coeff_eta_etabar: np.ndarray           # (N,) real: 0.5 dW/dmu_j
    coeff_mu_eta: np.ndarray               # (N, N) complex: dV_ij/deta
    closure_residual: float
    closure_scale: float
    point: BasePoint


def curvature_F(field, p: BasePoint) -> CurvatureSample:
    """Curvature coefficients and their closure defect."""
    jet, expr, scale = _second_identity(field, p)
    coeff1 = 0.5 * jet.dW[:p.N]
    coeff2 = jet.dV_eta.copy()
    return CurvatureSample(coeff1, coeff2, float(np.max(np.abs(expr))), scale, p)


def grad_norm(field, u, p: BasePoint) -> float:
    """Pointwise metric norm of the differential of a base function.

    Uses the co-metric: V^{-1} on mu-covectors and 1/W on the two real
    eta-covectors.  ``u`` is a callable on BasePoint; its gradient is
    ``geometry.fd_gradient``.
    """
    jet = field.at(p)
    g = fd_gradient(lambda vec: u(BasePoint.from_vector(vec)), p.as_vector())
    N = p.N
    gm = g[:N]
    quad = float(gm @ np.linalg.solve(jet.V, gm)) + (g[N] ** 2 + g[N + 1] ** 2) / jet.W
    return float(np.sqrt(max(quad, 0.0)))
