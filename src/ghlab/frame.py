"""Integrability of the ansatz's metric data in an adapted orthogonal frame.

For coefficient data (V, W) the metric splits into three orthogonal
blocks: V on the base mu-directions, V^{-1} on the torus fiber, and W
times the identity on the two horizontal eta-directions.  The structure
is integrable precisely when the mu-gradients of V are symmetric in the
lower index pair and the fiber curvature is closed; closing the
curvature is the second identity below.  Neither the frame nor the
connection form is ever assembled; both checks are pointwise identities
on first and second derivatives of (V, W), which ``integrability_batch``
reads exactly from the kernels' ``alpha_hessian``; its one-point case
``integrability_residual`` remains for the benchmark, which traces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import _outers
from .geometry import BasePoint
from .kernels import alpha_hessian

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
    """Both integrability identities of the first-order ``field`` (its form
    and quadrature) at the batch mu (B, N), eta (B,): the residuals (2, B)
    and their scales (2, B), from one ``kernels.alpha_hessian`` call, in
    which V = A + sum_k alpha_k e_k e_k^T and W = det A (1 + tr(A^-1 (V - A)))
    are linear.  The first identity reads the mu-gradient of V; the second is
    d^2 W / dmu_i dmu_j + (V_ij)_xx + (V_ij)_yy.  A batch of no points gives
    (2, 0) arrays."""
    A = field.A
    N = A.n
    labels, grad, hess = alpha_hessian(A, field.quad, mu, eta)
    B, outers = grad.shape[1], _outers(N, labels)              # (K, N N)
    w = A.det * (outers @ A.inv.ravel())                        # W's weight per kernel
    # sums over the kernels slice by slice, so a row is the same in any batch
    dV = (grad[:, :, None, :N] * outers[:, None, :, None]).sum(axis=0).reshape(B, N, N, N)
    hessW = (w[:, None, None, None] * hess[..., :N, :N]).sum(axis=0)
    v_eta = (outers[:, None] * (hess[..., N, N] + hess[..., N + 1, N + 1])[..., None]
             ).sum(axis=0).reshape(B, N, N)
    res, scale = np.empty((2, B)), np.empty((2, B))
    res[0] = np.abs(dV - np.swapaxes(dV, 2, 3)).max(axis=(1, 2, 3))
    scale[0] = np.maximum(np.abs(dV).max(axis=(1, 2, 3)), 1e-300)
    res[1] = np.abs(hessW + v_eta).max(axis=(1, 2))
    scale[1] = np.maximum(np.abs(hessW).max(axis=(1, 2)),
                          np.abs(v_eta).max(axis=(1, 2)))
    return res, scale


def integrability_residual(field, p: BasePoint) -> IntegrabilityResidual:
    """Evaluate both integrability identities at a point: the one-row case
    of ``integrability_batch``."""
    res, scale = integrability_batch(field, p.mu[None], np.array([p.eta]))
    return IntegrabilityResidual(float(res[0, 0]), float(res[1, 0]),
                                 float(scale[0, 0]), float(scale[1, 0]))
