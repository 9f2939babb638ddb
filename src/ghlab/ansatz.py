"""Coefficient fields of the generalized ansatz.

Three families of coefficient data (V, W) on the base are provided: the
exact flat model (the standard structure written in base coordinates), the
first-order asymptotic field built from the Green kernels on top of a
background form A, and the restricted model fields attached to a stratum
subset.  The first-order data satisfies the linearized equations exactly
and the nonlinear volume identity up to a controlled error, whose relative
size is the sigma-expansion tail computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .geometry import BasePoint, IndexSet, QuadForm, anorm
from .kernels import KernelSpec, alpha_batch
from .locus import dist_closed_stratum  # noqa: F401  perfbench/tracing.py patches it here
from .locus import dist_locus
from .quadrature import QuadratureSpec

__all__ = [
    "FlatFieldResult",
    "flat_field",
    "FieldJet",
    "FirstOrderField",
    "RestrictedField",
    "PerturbedField",
    "FlatModelField",
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


def flat_field(A_trivial: QuadForm | None, p: BasePoint) -> FlatFieldResult:
    """Flat-model coefficients from the base coordinates.

    Solves x * prod(x + 2 mu_i) = |eta|^2 for x = |z_0|^2 and assembles
    V^{-1}_ij = x + delta_ij |z_i|^2 and the pole-free reciprocal
    W^{-1} = sum_i prod_{j != i} |z_j|^2.  The background form argument
    only fixes the expected dimension; the flat model does not depend
    on it.
    """
    N = p.N
    if A_trivial is not None and A_trivial.n != N:
        raise ValueError("form dimension does not match the point")
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
    """Values and analytic first derivatives of a coefficient field.

    dV has layout [i, j, k] = d V_ij / d mu_k; dV_eta is the complex
    eta-derivative taken entrywise; dW runs over (mu_1..mu_N, Re, Im).
    quad_error is the largest prefactor-scaled error estimate of the
    kernel batches; an integral that misses its tolerance raises
    QuadratureError instead of returning a jet.
    """

    point: BasePoint
    V: np.ndarray
    W: float
    v: np.ndarray
    w: float
    dV: np.ndarray
    dV_eta: np.ndarray
    dW: np.ndarray
    spd: bool
    quad_error: float


def _kernel_list(A: QuadForm, restriction: IndexSet | None) -> list[KernelSpec]:
    N = A.n
    out = []
    for i in range(1, N + 1):
        out.append(KernelSpec(A, (0, i), restriction))
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            out.append(KernelSpec(A, (i, j), restriction))
    return out


def _jets(A: QuadForm, restriction: IndexSet | None, quad: QuadratureSpec,
          points: list[BasePoint], want_gradient: bool) -> list[FieldJet]:
    """Assemble field jets at many points, one kernel batch per kernel;
    every quantity is stacked over the points until the jets are built."""
    N = A.n
    B = len(points)
    v = np.zeros((B, N, N))
    dv = np.zeros((B, N, N, N))
    dv_eta = np.zeros((B, N, N), dtype=complex)
    vals: dict[tuple[int, int], np.ndarray] = {}
    grads: dict[tuple[int, int], np.ndarray] = {}
    err = 0.0
    for spec in _kernel_list(A, restriction):
        val, g, e = alpha_batch(spec, quad, points, want_gradient=want_gradient)
        vals[spec.labels], grads[spec.labels] = val, g
        err = max(err, float(np.max(e)))
    for i in range(1, N + 1):
        diag = vals[(0, i)].copy()
        diag_g = grads[(0, i)]
        for j in range(1, N + 1):
            if j == i:
                continue
            key = (min(i, j), max(i, j))
            v[:, i - 1, j - 1] = -vals[key]
            diag += vals[key]
            if want_gradient:
                g = grads[key]
                dv[:, i - 1, j - 1, :] = -g[:, :N]
                dv_eta[:, i - 1, j - 1] = 0.5 * (-g[:, N] + 1j * g[:, N + 1])
                diag_g = diag_g + g
        v[:, i - 1, i - 1] = diag
        if want_gradient:
            dv[:, i - 1, i - 1, :] = diag_g[:, :N]
            dv_eta[:, i - 1, i - 1] = 0.5 * (diag_g[:, N] - 1j * diag_g[:, N + 1])
    # each point's sums reduce one contiguous row, as a lone point's would
    w = A.det * (A.inv * v).reshape(B, -1).sum(axis=1)
    V = A.entries + v
    W = A.det + w
    spd = (np.linalg.eigvalsh(V)[:, 0] > 0.0) & (W > 0.0)
    if want_gradient:
        dw_mu = A.det * np.einsum("ij,bijk->bk", A.inv, dv)
        dw_eta = A.det * (A.inv * dv_eta).reshape(B, -1).sum(axis=1)
        dW = np.column_stack([dw_mu, 2.0 * dw_eta.real, -2.0 * dw_eta.imag])
    out = []
    for t in range(B):
        jet_d = (dv[t], dv_eta[t], dW[t]) if want_gradient else (None, None, None)
        out.append(FieldJet(points[t], V[t], float(W[t]), v[t], float(w[t]),
                            *jet_d, bool(spd[t]), err))
    return out


class FirstOrderField:
    """First-order asymptotic coefficient field over a background form."""

    def __init__(self, A: QuadForm, quad: QuadratureSpec) -> None:
        self.A = A
        self.quad = quad

    def jet(self, points: list[BasePoint], want_gradient: bool = True) -> list[FieldJet]:
        return _jets(self.A, None, self.quad, points, want_gradient)

    def at(self, p: BasePoint, want_gradient: bool = False) -> FieldJet:
        return self.jet([p], want_gradient)[0]


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

    def jet(self, points: list[BasePoint], want_gradient: bool = True) -> list[FieldJet]:
        return _jets(self.A, self.I, self.quad, points, want_gradient)

    def at(self, p: BasePoint, want_gradient: bool = False) -> FieldJet:
        return self.jet([p], want_gradient)[0]


class PerturbedField:
    """Wrapper adding an explicit smooth perturbation to V; test helper.

    extra(p) returns the matrix added to V, extra_dmu(p)[i, j, k] its
    mu-gradient, extra_deta(p) its complex eta-derivative.
    """

    def __init__(self, base, extra, extra_dmu, extra_deta=None) -> None:
        self.base = base
        self.extra = extra
        self.extra_dmu = extra_dmu
        self.extra_deta = extra_deta

    def jet(self, points: list[BasePoint], want_gradient: bool = True) -> list[FieldJet]:
        jets = self.base.jet(points, want_gradient)
        for j in jets:
            j.V = j.V + self.extra(j.point)
            if want_gradient:
                j.dV = j.dV + self.extra_dmu(j.point)
                if self.extra_deta is not None:
                    j.dV_eta = j.dV_eta + self.extra_deta(j.point)
        return jets

    def at(self, p: BasePoint, want_gradient: bool = False) -> FieldJet:
        return self.jet([p], want_gradient)[0]


class FlatModelField:
    """Exact flat model packaged as a field provider.

    First derivatives are finite differences of the exact values; the flat
    data is smooth away from the locus so one Richardson level reaches
    truncation error ~ h^4.
    """

    def __init__(self, N: int, h_rel: float = 1e-5) -> None:
        self.N = N
        self.h = h_rel

    def _vw(self, p: BasePoint) -> tuple[np.ndarray, float]:
        res = flat_field(None, p)
        if res.on_locus:
            raise ValueError("flat field evaluated on the degeneration locus")
        return res.V, res.W

    def jet(self, points: list[BasePoint], want_gradient: bool = True) -> list[FieldJet]:
        return [self._jet1(p, want_gradient) for p in points]

    def at(self, p: BasePoint, want_gradient: bool = False) -> FieldJet:
        return self._jet1(p, want_gradient)

    def _jet1(self, p: BasePoint, want_gradient: bool) -> FieldJet:
        N = self.N
        V, W = self._vw(p)
        dV = dV_eta = dW = None
        if want_gradient:
            scale = max(1.0, float(np.max(np.abs(p.as_vector()))))
            h = self.h * scale
            dV = np.zeros((N, N, N))
            dW = np.zeros(N + 2)
            dV_xy = np.zeros((N, N, 2))
            for k in range(N + 2):
                step = np.zeros(N + 2)
                step[k] = 1.0

                def shifted(t: float):
                    return BasePoint.from_vector(p.as_vector() + t * step)

                def diff(hh):
                    Vp, Wp = self._vw(shifted(hh))
                    Vm, Wm = self._vw(shifted(-hh))
                    return (Vp - Vm) / (2 * hh), (Wp - Wm) / (2 * hh)

                (dv1, dw1), (dv2, dw2) = diff(h), diff(h / 2)
                dv = (4.0 * dv2 - dv1) / 3.0
                dw = (4.0 * dw2 - dw1) / 3.0
                if k < N:
                    dV[:, :, k] = dv
                else:
                    dV_xy[:, :, k - N] = dv
                dW[k] = dw
            dV_eta = 0.5 * (dV_xy[:, :, 0] - 1j * dV_xy[:, :, 1])
        eig = np.linalg.eigvalsh(V)
        return FieldJet(p, V, W, V, W, dV, dV_eta, dW,
                        bool(eig[0] > 0 and W > 0), 0.0)


def restricted_remainders(A: QuadForm, I: IndexSet, quad: QuadratureSpec,
                          p: BasePoint) -> tuple[np.ndarray, float]:
    """Smooth remainder of the field after subtracting the subset model.

    Returns (h_v, h_w) with h_v = v - v_I entrywise and h_w = w - w_I.
    """
    full = FirstOrderField(A, quad).at(p)
    part = RestrictedField(A, I, quad).at(p)
    return full.v - part.v, full.w - part.w


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
    spaced radii, measures against the anisotropic distance to the origin,
    and fits a power law by least squares in log-log.
    """
    if radii is None:
        radii = 8.0 * 2.0 ** (0.5 * np.arange(17))
    field = FirstOrderField(A, quad)
    xs, ys = [], []
    for r in radii:
        p = ray.point(float(r))
        jet = field.at(p)
        exp = sigma_expansion(A, jet.v)
        val = abs(exp.relative_error)
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
