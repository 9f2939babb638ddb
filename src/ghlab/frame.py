"""Integrability of the ansatz's metric data in an adapted orthogonal frame.

For coefficient data (V, W) the metric splits into three orthogonal
blocks: V on the base mu-directions, V^{-1} on the torus fiber, and W
times the identity on the two horizontal eta-directions.  The structure
is integrable precisely when the mu-gradients of V are symmetric in the
lower index pair and the fiber curvature is closed; closing the
curvature is the second identity below.  Neither the frame nor the
connection form is ever assembled; both checks are pointwise identities
on derivatives of (V, W).  ``integrability_batch`` puts every point's
Richardson stencil into one call of the field's ``jet`` and reads the
stacked jet back per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (BasePoint, batch_from_vectors, gradient_step,
                       richardson_derivative, richardson_stencil)

__all__ = [
    "IntegrabilityResidual",
    "integrability_batch",
    "integrability_residual",
]


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
