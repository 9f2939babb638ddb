"""Coefficient fields of the generalized ansatz.

Three families of coefficient data (V, W) on the base are provided: the
exact flat model (the standard structure written in base coordinates,
values only, from ``flat_field``), the first-order asymptotic field built
from the Green kernels on top of a background form A, and the restricted
model fields attached to a stratum subset.  The first-order data
satisfies the linearized equations exactly and the nonlinear volume
identity up to a controlled error, whose relative size is the
sigma-expansion tail computed here.

A first-order or restricted field's ``jet(mu, eta, want_gradient)`` takes
a batch of points as two arrays, mu (B, N) and eta (B,), puts the whole
batch and all the field's kernels into one ``kernels.alpha_family`` call
(one engine call), and returns one stacked ``FieldJet`` whose arrays carry
a leading B; a single point is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .geometry import BasePoint, IndexSet, QuadForm, anorm, batch_from_vectors
from .kernels import alpha_batch  # noqa: F401  perfbench/tracing.py patches it here
from .kernels import alpha_family
from .locus import dist_closed_stratum  # noqa: F401  perfbench/tracing.py patches it here
from .locus import dist_locus
from .quadrature import QuadratureSpec

__all__ = [
    "FlatFieldResult",
    "flat_field",
    "FieldJet",
    "FirstOrderField",
    "RestrictedField",
    "restricted_remainders",
    "SigmaExpansion",
    "sigma_expansion",
    "Ray",
    "DecayFit",
    "decay_scan",
    "weight_ell",
]


# ---------------------------------------------------------------------------
# flat model


@dataclass
class FlatFieldResult:
    """Exact flat-model data at one base point.

    z_squared lists the squared moduli of the upstairs coordinates,
    index 0 first.  On the degeneration locus (two or more vanishing
    moduli) the coefficients are singular and V, W are None.
    """

    x: float
    z_squared: np.ndarray
    on_locus: bool
    V_inv: np.ndarray | None
    V: np.ndarray | None
    W: float | None


def flat_field(p: BasePoint) -> FlatFieldResult:
    """Flat-model coefficients from the base coordinates.

    Solves x * prod(x + 2 mu_i) = |eta|^2 for x = |z_0|^2 and assembles
    V^{-1}_ij = x + delta_ij |z_i|^2 and the pole-free reciprocal
    W^{-1} = sum_i prod_{j != i} |z_j|^2.  The flat model depends on no
    form.
    """
    N = p.N
    mu = p.mu
    target = abs(p.eta) ** 2
    x_lo = max(0.0, -2.0 * float(np.min(mu)))

    if target == 0.0:
        x = x_lo
    else:
        def f(x: float) -> float:
            return x * float(np.prod(x + 2.0 * mu)) - target

        hi = x_lo + max(1.0, target ** (1.0 / (N + 1)), 2.0 * float(np.max(np.abs(mu))))
        while f(hi) < 0.0:
            hi *= 2.0
        x = brentq(f, x_lo, hi, xtol=1e-300 + 1e-15 * hi, rtol=8.9e-16)

    zsq = np.concatenate([[x], x + 2.0 * mu])
    scale = max(1.0, float(np.max(zsq)))
    n_zero = int(np.sum(zsq <= 1e-13 * scale))
    if n_zero >= 2:
        return FlatFieldResult(x, zsq, True, None, None, None)

    V_inv = np.full((N, N), x) + np.diag(zsq[1:])
    V = np.linalg.inv(V_inv)
    w_inv = 0.0
    for i in range(N + 1):
        w_inv += float(np.prod(np.delete(zsq, i)))
    return FlatFieldResult(x, zsq, False, V_inv, V, 1.0 / w_inv)


# ---------------------------------------------------------------------------
# first-order and restricted fields


@dataclass
class FieldJet:
    """Values and analytic first derivatives of a coefficient field,
    stacked over B points: V and v (B, N, N); W, w and quad_error (B,);
    dV (B, N, N, N + 2) with [b, i, j, k] = d V_ij / d x_k and dW
    (B, N + 2), both over x = (mu_1..mu_N, Re eta, Im eta).  The
    derivatives are None for a jet taken without them.  quad_error is each
    point's largest prefactor-scaled error estimate over the kernels; an
    integral that misses its tolerance raises QuadratureError instead.
    """

    V: np.ndarray
    W: np.ndarray
    v: np.ndarray
    w: np.ndarray
    dV: np.ndarray | None
    dW: np.ndarray | None
    quad_error: np.ndarray


def _jets(A: QuadForm, restriction: IndexSet | None, quad: QuadratureSpec,
          mu: np.ndarray, eta: np.ndarray, want_gradient: bool) -> FieldJet:
    """Assemble the stacked field jet at a batch of points from one
    ``kernels.alpha_family`` batch: every kernel that does not vanish, in
    one engine call."""
    N = A.n
    labels, kv = alpha_family(A, restriction, quad, mu, eta, want_gradient)
    B = kv.value.shape[1]
    # kernel (i, j) adds its value times (e_i - e_j)(e_i - e_j)^T, e_0 = 0,
    # kernel by kernel in label order; a vanishing kernel adds nothing
    v = np.zeros((B, N, N))
    dv = np.zeros((B, N, N, N + 2))
    for k, (i, j) in enumerate(labels):
        e = np.zeros(N + 1)
        e[i], e[j] = 1.0, -1.0
        outer = np.outer(e[1:], e[1:])
        v += kv.value[k][:, None, None] * outer
        if want_gradient:
            dv += kv.gradient[k][:, None, None, :] * outer[:, :, None]
    err = kv.error.max(axis=0)
    # each point's sums reduce one contiguous row, as a lone point's would
    w = A.det * (A.inv * v).reshape(B, -1).sum(axis=1)
    V = A.entries + v
    W = A.det + w
    if not want_gradient:
        return FieldJet(V, W, v, w, None, None, err)
    dW = A.det * np.einsum("ij,bijk->bk", A.inv, dv)
    return FieldJet(V, W, v, w, dv, dW, err)


class FirstOrderField:
    """First-order asymptotic coefficient field over a background form."""

    def __init__(self, A: QuadForm, quad: QuadratureSpec) -> None:
        self.A = A
        self.quad = quad

    def jet(self, mu: np.ndarray, eta: np.ndarray,
            want_gradient: bool = True) -> FieldJet:
        return _jets(self.A, None, self.quad, mu, eta, want_gradient)


class RestrictedField:
    """Model coefficient field attached to a stratum subset.

    Kernels whose labels leave the subset vanish, so V - A is supported on
    the subset's block and depends only on the subset slots and eta.
    """

    def __init__(self, A: QuadForm, I: IndexSet, quad: QuadratureSpec) -> None:
        I.require_stratum(A.n)
        if not I.contains_zero:
            raise ValueError("restricted fields are built for subsets containing 0")
        self.A = A
        self.I = I
        self.quad = quad

    def jet(self, mu: np.ndarray, eta: np.ndarray,
            want_gradient: bool = True) -> FieldJet:
        return _jets(self.A, self.I, self.quad, mu, eta, want_gradient)


def restricted_remainders(A: QuadForm, I: IndexSet, quad: QuadratureSpec,
                          p: BasePoint) -> tuple[np.ndarray, float]:
    """Smooth remainder of the field after subtracting the subset model.

    Returns (h_v, h_w) with h_v = v - v_I entrywise and h_w = w - w_I,
    from row 0 of each field's jet at p.
    """
    mu, eta = p.mu[None], np.array([p.eta])
    full = FirstOrderField(A, quad).jet(mu, eta, want_gradient=False)
    part = RestrictedField(A, I, quad).jet(mu, eta, want_gradient=False)
    return full.v[0] - part.v[0], float(full.w[0] - part.w[0])


# ---------------------------------------------------------------------------
# sigma expansion


@dataclass
class SigmaExpansion:
    """Elementary symmetric data of the perturbation relative to A.

    sigmas[k-1] is the k-th elementary symmetric function of the
    eigenvalues of A^{-1} v; relative_error is the normalized volume
    defect -sum_{k>=2} sigma_k / (1 + sum_k sigma_k); the two error routes
    (through w and through det) agree to roundoff.
    """

    sigmas: np.ndarray
    relative_error: float
    relative_error_det_route: float
    det_identity_gap: float


def sigma_expansion(A: QuadForm, v: np.ndarray) -> SigmaExpansion:
    v = np.asarray(v, dtype=float)
    if v.shape != (A.n, A.n):
        raise ValueError("perturbation shape mismatch")
    eigs = scipy.linalg.eigh(0.5 * (v + v.T), A.entries, eigvals_only=True)
    coeffs = np.poly(eigs)          # monic, length N+1
    sigmas = np.array([(-1.0) ** k * coeffs[k] for k in range(1, A.n + 1)])
    total = 1.0 + float(np.sum(sigmas))
    tail = float(np.sum(sigmas[1:])) if A.n >= 2 else 0.0
    rel = -tail / total
    detV = float(np.linalg.det(A.entries + v))
    w = A.det * float(np.sum(A.inv * v))
    rel_det = -(detV - A.det - w) / detV
    gap = abs(detV / A.det - total)
    return SigmaExpansion(sigmas, rel, rel_det, gap)


# ---------------------------------------------------------------------------
# decay scans and stratum weights


@dataclass(frozen=True)
class Ray:
    """Straight sampling ray p(r) = (base_mu + r * dir_mu, base_eta + r * dir_eta)."""

    dir_mu: np.ndarray
    dir_eta: complex = 0j
    base_mu: np.ndarray | None = None
    base_eta: complex = 0j
    label: str = "ray"

    def point(self, r: float) -> BasePoint:
        base = self.base_mu if self.base_mu is not None else np.zeros_like(self.dir_mu)
        return BasePoint(base + r * np.asarray(self.dir_mu, dtype=float),
                         self.base_eta + r * self.dir_eta)


@dataclass
class DecayFit:
    """Log-log fit of the volume defect along a ray."""

    exponent: float
    intercept: float
    max_residual: float
    radii: np.ndarray
    scales: np.ndarray
    values: np.ndarray
    label: str


def decay_scan(A: QuadForm, quad: QuadratureSpec, ray: Ray,
               radii: np.ndarray | None = None) -> DecayFit:
    """Measure the decay exponent of the relative volume defect on a ray.

    Samples |relative_error| of the first-order field at geometrically
    spaced radii, all in one field jet call, measures against the
    anisotropic distance to the origin, and fits a power law by least
    squares in log-log.
    """
    if radii is None:
        radii = 8.0 * 2.0 ** (0.5 * np.arange(17))
    pts = [ray.point(float(r)) for r in radii]
    mu, eta = batch_from_vectors(np.array([p.as_vector() for p in pts]))
    jet = FirstOrderField(A, quad).jet(mu, eta, want_gradient=False)
    xs, ys = [], []
    for t, p in enumerate(pts):
        val = abs(sigma_expansion(A, jet.v[t]).relative_error)
        if val > 0.0 and np.isfinite(val):
            xs.append(anorm(A, p))
            ys.append(val)
    x = np.log(np.array(xs))
    y = np.log(np.array(ys))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return DecayFit(-float(slope), float(intercept), resid,
                    np.asarray(radii, dtype=float), np.exp(x), np.exp(y), ray.label)


def weight_ell(A: QuadForm, i: int, p: BasePoint) -> float:
    """Depth-i weight: one plus the distance to the nearest stratum with
    i + 1 labels.

    The family shrinks as i grows, so the weights increase in i; the
    depth-1 weight is exactly 1 on any two-label stratum.
    """
    if not 1 <= i <= A.n:
        raise ValueError("depth out of range")
    return 1.0 + dist_locus(A, p, i + 1)
