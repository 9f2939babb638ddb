"""Metric data of the ansatz in an adapted orthogonal frame.

For coefficient data (V, W) the metric splits into three orthogonal
blocks: V on the base mu-directions, V^{-1} on the torus fiber, and W
times the identity on the two horizontal eta-directions.  The volume
density is therefore the scalar W squared regardless of V, and the
structure is integrable precisely when the mu-gradients of V are
symmetric in the lower index pair and the fiber curvature is closed.
The connection form is never built globally; every check here is a
pointwise identity on derivatives of (V, W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BasePoint, fd_gradient

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


def _stencil(p: BasePoint, h: float, directions: list[int]) -> list[BasePoint]:
    """Center, then +/- h and +/- h/2 along each requested coordinate."""
    pts = [p]
    base = p.as_vector()
    for k in directions:
        for s in (h, -h, h / 2, -h / 2):
            vec = base.copy()
            vec[k] += s
            pts.append(BasePoint.from_vector(vec))
    return pts


def _second_from_jets(jets, k_dir: int, pick, h: float):
    """Richardson central difference of an analytic first derivative.

    jets layout follows _stencil; pick maps a jet to the differentiated
    quantity (array or scalar).
    """
    i0 = 1 + 4 * k_dir
    d_h = (pick(jets[i0]) - pick(jets[i0 + 1])) / (2.0 * h)
    d_h2 = (pick(jets[i0 + 2]) - pick(jets[i0 + 3])) / h
    return (4.0 * d_h2 - d_h) / 3.0


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


# Richardson step over the point's largest coordinate.  The stencil's
# truncation error is O(h^4): at this step the second identity's residual
# stays below 1e-5 on 768 field-n3 points (7.7e-6 at the worst, 2.0e-3 at
# 4x the step), far under criterion 12's 1e-3, while the quadrature error
# divided by h stays far smaller still.
_FD_STEP_REL = 5e-3


def _fd_step(p: BasePoint) -> float:
    """The one step of every Richardson stencil on analytic gradients."""
    return _FD_STEP_REL * max(1.0, float(np.max(np.abs(p.as_vector()))))


def _stencil_jets(field, p: BasePoint) -> tuple[list, float]:
    """Gradient jets on the Richardson stencil over every coordinate; row 0
    is the centre point itself."""
    h = _fd_step(p)
    return field.jet(_stencil(p, h, list(range(p.N + 2))), want_gradient=True), h


def _second_identity_matrix(jets, N: int, h: float) -> tuple[np.ndarray, float]:
    """d^2 W / dmu_i dmu_j + (V_ij)_xx + (V_ij)_yy and its scale."""
    hessW = np.zeros((N, N))
    for k in range(N):
        col = _second_from_jets(jets, k, lambda j: j.dW[:N], h)
        hessW[:, k] = col
    hessW = 0.5 * (hessW + hessW.T)
    vxx = _second_from_jets(jets, N, lambda j: 2.0 * j.dV_eta.real, h)
    vyy = _second_from_jets(jets, N + 1, lambda j: -2.0 * j.dV_eta.imag, h)
    expr = hessW + vxx + vyy
    scale = max(float(np.max(np.abs(hessW))), float(np.max(np.abs(vxx + vyy))))
    return expr, scale


def integrability_residual(field, p: BasePoint) -> IntegrabilityResidual:
    """Evaluate both integrability identities at a point.

    The first identity uses the field's analytic mu-gradient of V directly;
    the second differences the analytic gradients once (Richardson), with
    the step of ``_fd_step``.  The centre jet is row 0 of the stencil.
    """
    jets, h = _stencil_jets(field, p)
    jet = jets[0]
    first = float(np.max(np.abs(jet.dV - np.transpose(jet.dV, (0, 2, 1)))))
    first_scale = max(float(np.max(np.abs(jet.dV))), 1e-300)
    expr, scale = _second_identity_matrix(jets, p.N, h)
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
    jets, h = _stencil_jets(field, p)
    jet = jets[0]
    N = p.N
    coeff1 = 0.5 * jet.dW[:N]
    coeff2 = jet.dV_eta.copy()
    expr, scale = _second_identity_matrix(jets, N, h)
    return CurvatureSample(coeff1, coeff2, float(np.max(np.abs(expr))), scale, p)


def grad_norm(field, u, p: BasePoint) -> float:
    """Pointwise metric norm of the differential of a base function.

    Uses the co-metric: V^{-1} on mu-covectors and 1/W on the two real
    eta-covectors.  ``u`` is a callable on BasePoint; its gradient is a
    Richardson central difference.
    """
    jet = field.at(p)
    g = fd_gradient(lambda vec: u(BasePoint.from_vector(vec)), p.as_vector())
    N = p.N
    gm = g[:N]
    quad = float(gm @ np.linalg.solve(jet.V, gm)) + (g[N] ** 2 + g[N + 1] ** 2) / jet.W
    return float(np.sqrt(max(quad, 0.0)))
