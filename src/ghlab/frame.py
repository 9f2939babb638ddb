"""Integrability of the ansatz's metric data in an adapted orthogonal frame.

For coefficient data (V, W) the metric splits into three orthogonal
blocks: V on the base mu-directions, V^{-1} on the torus fiber, and W
times the identity on the two horizontal eta-directions.  The structure
is integrable precisely when the mu-gradients of V are symmetric in the
lower index pair and the fiber curvature is closed; closing the
curvature is the second identity below.  Neither the frame nor the
connection form is ever assembled; both checks are pointwise identities
on derivatives of (V, W).  ``integrability_batch`` puts every point's
Richardson stencil into one call of the field's ``jet`` and differences
the stacked jet for all points at once; ``integrability_residual``, its
one-point case, remains only for the benchmark, which calls and traces it.
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

    @property
    def first_relative(self) -> float:
        return self.first / max(self.first_scale, 1e-300)

    @property
    def second_relative(self) -> float:
        return self.second / max(self.second_scale, 1e-300)


def integrability_batch(field, mu: np.ndarray, eta: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Both integrability identities at the batch mu (B, N), eta (B,): the
    residuals (2, B) and their scales (2, B), from one field jet over every
    point's Richardson stencil.  The first identity reads the analytic
    mu-gradient of V; the second, d^2 W / dmu_i dmu_j + (V_ij)_xx +
    (V_ij)_yy, differences the analytic gradients once with
    ``geometry.gradient_step``.  A batch of no points gives (2, 0) arrays."""
    B, N = mu.shape
    xs = np.column_stack([mu, eta.real, eta.imag])
    hs = gradient_step(xs)
    R = 1 + 4 * (N + 2)
    jet = field.jet(*batch_from_vectors(richardson_stencil(xs, hs).reshape(B * R, N + 2)),
                    want_gradient=True)
    dV = jet.dV[::R, ..., :N]
    res, scale = np.empty((2, B)), np.empty((2, B))
    res[0] = np.abs(dV - np.swapaxes(dV, 2, 3)).max(axis=(1, 2, 3))
    scale[0] = np.maximum(np.abs(dV).max(axis=(1, 2, 3)), 1e-300)
    # d_k of dW/dmu_j at [b, k, j], and of the (x, y) columns of V at [b, k, i, j, :]
    dW = richardson_derivative(jet.dW[:, :N].reshape(B, R, N), hs)
    dV_xy = richardson_derivative(jet.dV[..., N:].reshape(B, R, N, N, 2), hs)
    hessW = 0.5 * (dW[:, :N] + np.swapaxes(dW[:, :N], 1, 2))
    vxx, vyy = dV_xy[:, N, ..., 0], dV_xy[:, N + 1, ..., 1]
    res[1] = np.abs(hessW + vxx + vyy).max(axis=(1, 2))
    scale[1] = np.maximum(np.abs(hessW).max(axis=(1, 2)), np.abs(vxx + vyy).max(axis=(1, 2)))
    return res, scale


def integrability_residual(field, p: BasePoint) -> IntegrabilityResidual:
    """Evaluate both integrability identities at a point: the one-row case
    of ``integrability_batch``."""
    res, scale = integrability_batch(field, p.mu[None], np.array([p.eta]))
    return IntegrabilityResidual(float(res[0, 0]), float(res[1, 0]),
                                 float(scale[0, 0]), float(scale[1, 0]))
