"""Metric data of the ansatz in an adapted orthogonal frame.

For coefficient data (V, W) the metric splits into three orthogonal
blocks: V on the base mu-directions, V^{-1} on the torus fiber, and W
times the identity on the two horizontal eta-directions.  The volume
density is therefore the scalar W squared regardless of V, and the
structure is integrable precisely when the mu-gradients of V are
symmetric in the lower index pair and the fiber curvature is closed.
The connection form is never built globally; every check here is a
pointwise identity on derivatives of (V, W).  ``integrability_batch``
puts every point's Richardson stencil into one call of the field's
``jet`` and reads the stacked jet back per point.
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
    "integrability_batch",
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


def integrability_batch(field, mu: np.ndarray, eta: np.ndarray
                        ) -> tuple[object, np.ndarray, np.ndarray]:
    """Both integrability identities at the batch mu (B, N), eta (B,): the
    field's stacked jet on every point's Richardson stencil (point b's own
    at row b (4N + 9)), and the residuals (2, B) and their scales (2, B).
    The first identity reads the analytic mu-gradient of V; the second,
    d^2 W / dmu_i dmu_j + (V_ij)_xx + (V_ij)_yy, differences the analytic
    gradients once with ``geometry.gradient_step``."""
    B, N = mu.shape
    xs = np.column_stack([mu, eta.real, eta.imag])
    hs = np.array([gradient_step(x) for x in xs])
    jet = field.jet(*batch_from_vectors(np.concatenate(
        [richardson_stencil(x, h) for x, h in zip(xs, hs)])), want_gradient=True)
    R = 1 + 4 * (N + 2)
    dV = jet.dV[::R]
    res, scale = np.empty((2, B)), np.empty((2, B))
    res[0] = np.abs(dV - np.swapaxes(dV, 2, 3)).reshape(B, -1).max(axis=1)
    scale[0] = np.maximum(np.abs(dV).reshape(B, -1).max(axis=1), 1e-300)
    dV_eta = jet.dV_eta.reshape(B, R, N, N)
    # dW/dmu, then (V_ij)_x = 2 Re dV_ij/deta and (V_ij)_y = -2 Im dV_ij/deta
    rows = np.concatenate([jet.dW[:, :N].reshape(B, R, 1, N),
                           2.0 * dV_eta.real, -2.0 * dV_eta.imag], axis=2)
    # d[b, k] = d_k of point b's rows
    d = np.moveaxis(richardson_derivative(np.swapaxes(rows, 0, 1),
                                          hs[None, :, None, None]), 1, 0)
    hessW = 0.5 * (d[:, :N, 0] + np.swapaxes(d[:, :N, 0], 1, 2))
    vxx, vyy = d[:, N, 1:N + 1], d[:, N + 1, N + 1:]
    res[1] = np.abs(hessW + vxx + vyy).reshape(B, -1).max(axis=1)
    scale[1] = np.maximum(np.abs(hessW).reshape(B, -1).max(axis=1),
                          np.abs(vxx + vyy).reshape(B, -1).max(axis=1))
    return jet, res, scale


def integrability_residual(field, p: BasePoint) -> IntegrabilityResidual:
    """Evaluate both integrability identities at a point: the one-row case
    of ``integrability_batch``."""
    _, res, scale = integrability_batch(field, p.mu[None], np.array([p.eta]))
    return IntegrabilityResidual(float(res[0, 0]), float(res[1, 0]),
                                 float(scale[0, 0]), float(scale[1, 0]), p)


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
    jet, res, scale = integrability_batch(field, p.mu[None], np.array([p.eta]))
    return CurvatureSample(0.5 * jet.dW[0, :p.N], jet.dV_eta[0].copy(),
                           float(res[1, 0]), float(scale[1, 0]), p)


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
