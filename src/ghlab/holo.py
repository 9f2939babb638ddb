"""Holomorphic normalization data of the model structures.

Each stratum model carries meromorphic coefficient functions gamma_j, one
per label, tying the fiber coordinate to the model's holomorphic
coordinates.  They are primitives of eta-derivatives of the restricted
kernels along explicit rays; folding the ray parameter into the kernel's
own cone parameters turns each gamma into a single orthant integral of
one higher power, which the panel engine evaluates with a controlled
tail, no truncation parameter.  Their sum telescopes to the reciprocal of
the fiber coordinate, and the induced closed one-forms integrate to the
logarithms of the model coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BasePoint, IndexSet, QuadForm, block, schur_complement
from .kernels import KernelSpec, alpha_grad, _assemble, _active_mu
from .quadrature import QuadratureSpec, panel_nodes, power_kernel_integral

__all__ = [
    "GammaSpec",
    "gamma",
    "gamma_via_ray",
    "gamma_closed_form",
    "GammaSumResult",
    "gamma_sum_check",
    "LogZResult",
    "log_z",
    "taubnut_moduli",
    "GrowthFit",
    "growth_bound_check",
]


@dataclass(frozen=True)
class GammaSpec:
    """Model-space selection for the gamma family.

    The subset must contain 0 and be the contiguous leading block
    {0, ..., n}; general subsets reduce to this by relabeling upstream.
    """

    A: QuadForm
    I: IndexSet
    quad: QuadratureSpec

    def __post_init__(self) -> None:
        self.I.require_stratum(self.A.n)
        if self.I.members != tuple(range(len(self.I.members))):
            raise ValueError("gamma subsets must be the leading block {0..n}")

    @property
    def n(self) -> int:
        return len(self.I.active)


def _gamma_kernels(spec: GammaSpec, i: int) -> tuple[list[KernelSpec], np.ndarray]:
    """Kernels entering gamma_i and the ray column in active coordinates."""
    act = spec.I.active
    n = len(act)
    if i == 0:
        kernels = [KernelSpec(spec.A, (0, k), spec.I) for k in act]
        col = np.ones(n)
    else:
        if i not in act:
            raise ValueError("label outside the subset")
        kernels = [KernelSpec(spec.A, (0, i), spec.I)]
        kernels += [KernelSpec(spec.A, (min(i, k), max(i, k)), spec.I)
                    for k in act if k != i]
        pos = {lab: a for a, lab in enumerate(act)}
        col = np.zeros(n)
        col[pos[i]] = -1.0
    return kernels, col


def gamma(spec: GammaSpec, i: int, p: BasePoint) -> complex:
    """gamma_i at a point, via the folded orthant representation.

    The primitive of the eta-derivative along the defining ray becomes,
    after swapping the ray parameter into the cone, an orthant integral of
    the squared-distance power n + 2 with one more cone column.  The engine
    integrates its last two columns in closed form, so a two-slot gamma
    (two columns) is exact, a three-slot one sweeps one axis out to
    infinity on the mapped tail panel, and only from four slots on does a
    truncation radius enter, with its tail bound in the estimate.
    """
    if p.eta == 0:
        return 0j
    kernels, col = _gamma_kernels(spec, i)
    total = 0.0
    for ks in kernels:
        Q, c_eta, S, M, n, pref = _assemble(ks)
        M_ext = np.column_stack([M, col]) if M.size else col.reshape(-1, 1)
        res = power_kernel_integral(Q, c_eta, _active_mu(S, p), p.eta, M_ext,
                                    n + 2, spec.quad,
                                    prefactor=n * c_eta * abs(p.eta) * pref)
        total += n * c_eta * pref * float(res.value[0])
    return total * np.conj(p.eta)


def gamma_via_ray(spec: GammaSpec, i: int, p: BasePoint, T: float = 2048.0,
                  order: int = 16) -> complex:
    """Same gamma by truncated ray quadrature with tail extrapolation.

    Integrates the eta-derivatives of the restricted diagonal field along
    the defining ray out to 2T and removes the leading 1/T tail by the
    two-point extrapolation 2 G(2T) - G(T).  Kept as an independent route
    for cross-checks; the folded representation is the primary path.
    """
    if p.eta == 0:
        return 0j
    kernels, col = _gamma_kernels(spec, i)
    act = spec.I.active
    step_mu = np.zeros(p.N)
    for a, lab in enumerate(act):
        step_mu[lab - 1] = -col[a]

    def d_eta_sum(u: float) -> complex:
        q = BasePoint(p.mu + u * step_mu, p.eta)
        out = 0j
        for ks in kernels:
            g = alpha_grad(ks, spec.quad, q).gradient
            out += 0.5 * (g[p.N] - 1j * g[p.N + 1])
        return out

    s0 = max(1.0, float(np.max(np.abs(p.mu))))
    pts = {0.0, T, 2.0 * T}
    j = 0
    while s0 * 2.0 ** j < 2.0 * T:
        pts.add(s0 * 2.0 ** j)
        j += 1
    breaks = np.array(sorted(pts))
    nodes, wts = panel_nodes(breaks, order)
    vals = np.array([d_eta_sum(float(u)) for u in nodes])
    half = nodes <= T
    G_T = -2.0 * complex(np.sum(wts[half] * vals[half]))
    G_2T = -2.0 * complex(np.sum(wts * vals))
    return 2.0 * G_2T - G_T


def gamma_closed_form(A: QuadForm, I: IndexSet, i: int, p: BasePoint) -> complex:
    """Exact gamma for a single-active-slot subset.

    With r = sqrt(mu_i^2 + D |eta|^2), D the complementary block
    determinant: gamma_i = (1 - mu_i / r) / (2 eta) and
    gamma_0 = (1 + mu_i / r) / (2 eta).
    """
    act = I.active
    if len(act) != 1:
        raise ValueError("closed form requires exactly one active label")
    lab = act[0]
    if i not in (0, lab):
        raise ValueError("label outside the subset")
    comp = I.active_complement(A.n)
    D = float(np.linalg.det(block(A.entries, comp, comp))) if comp else 1.0
    mu = p.mu[lab - 1]
    r = math.sqrt(mu ** 2 + D * abs(p.eta) ** 2)
    sign = 1.0 if i == 0 else -1.0
    return (1.0 + sign * mu / r) / (2.0 * p.eta)


@dataclass
class GammaSumResult:
    total: complex
    target: complex
    scaled_gap: float    # |sum - 1/eta| * |eta|, dimensionless


def gamma_sum_check(spec: GammaSpec, p: BasePoint) -> GammaSumResult:
    """The gammas over all labels of the subset sum to 1/eta."""
    total = sum(gamma(spec, i, p) for i in (0,) + spec.I.active)
    target = 1.0 / p.eta
    return GammaSumResult(total, target, abs(total - target) * abs(p.eta))


# ---------------------------------------------------------------------------
# model coordinate logarithms


@dataclass
class LogZResult:
    """log moduli of the model coordinates, labels in subset order."""

    labels: tuple[int, ...]
    values: np.ndarray
    path: list[BasePoint]


def _one_form(A: QuadForm, I: IndexSet, quad: QuadratureSpec,
              nodes: list[BasePoint], need_gamma: bool, G: QuadForm
              ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of d log|z_j| at every node of a leg: mu rows
    (B, n+1, n) from one restricted field jet, and gammas (B, n+1)."""
    from .ansatz import RestrictedField

    act = I.active
    n = len(act)
    jets = RestrictedField(A, I, quad).jet(nodes, want_gradient=False)
    idx = [a - 1 for a in act]
    P = G.entries + np.stack([j.v for j in jets])[:, idx][:, :, idx]
    rows = np.empty((len(nodes), n + 1, n))
    rows[:, 1:, :] = P
    rows[:, 0, :] = -P.sum(axis=1)
    gam = np.zeros((len(nodes), n + 1), dtype=complex)
    if need_gamma:
        # at n >= 2 each gamma is an engine call of its own per node
        spec = GammaSpec(A, I, quad) if n > 1 else None
        for t, q in enumerate(nodes):
            gam[t] = [gamma(spec, lab, q) if spec else gamma_closed_form(A, I, lab, q)
                      for lab in (0,) + act]
    return rows, gam


def log_z(A: QuadForm, I: IndexSet, quad: QuadratureSpec, p: BasePoint,
          basepath: list[BasePoint] | None = None,
          gauge: np.ndarray | None = None, order: int = 16,
          panels: int = 8) -> LogZResult:
    """Integrate the model's closed log-derivative one-form to p.

    The one-form for label j has mu-part given by the reduced form plus
    the restricted perturbation (row sums negated for label 0) and eta-part
    Re(gamma_j d eta).  The path is piecewise linear through ``basepath``
    (default: one mu-leg from a generic positive reference at p's eta);
    ``gauge`` fixes the log moduli at the path start.  Each leg takes
    ``panels`` Gauss panels of ``order`` nodes, and all its nodes go
    through one restricted field jet call.  Every path node must keep eta
    nonzero.
    """
    if not I.contains_zero:
        raise ValueError("model coordinates need a subset containing 0")
    I.require_stratum(A.n)
    act = I.active
    n = len(act)
    if basepath is None:
        mu_ref = p.mu.copy()
        s = 2.0 + float(np.max(np.abs(p.mu[[a - 1 for a in act]]), initial=0.0))
        for a in act:
            mu_ref[a - 1] = s
        basepath = [BasePoint(mu_ref, p.eta), p]
    if np.max(np.abs(basepath[-1].as_vector() - p.as_vector())) > 0:
        basepath = basepath + [p]
    vals = np.zeros(n + 1) if gauge is None else np.asarray(gauge, dtype=float).copy()
    if vals.shape != (n + 1,):
        raise ValueError("gauge must give one value per subset label")
    G = schur_complement(A, I)
    x, w = np.polynomial.legendre.leggauss(order)
    lo = np.arange(panels) / panels
    hi = np.arange(1, panels + 1) / panels
    ss = (lo[:, None] + 0.5 * (hi - lo)[:, None] * (x + 1.0)).ravel()
    ww = (0.5 * (hi - lo)[:, None] * w).ravel()
    for q0, q1 in zip(basepath, basepath[1:]):
        d_mu_full = q1.mu - q0.mu
        d_mu = d_mu_full[[a - 1 for a in act]]
        d_eta = q1.eta - q0.eta
        need_gamma = d_eta != 0
        nodes = [BasePoint(q0.mu + s * d_mu_full, q0.eta + s * d_eta) for s in ss]
        if any(q.eta == 0 for q in nodes):
            raise ValueError("path crosses eta = 0")
        rows, gam = _one_form(A, I, quad, nodes, need_gamma, G)
        # added node by node in path order; a pairwise sum would round
        # otherwise and a leg's value would depend on its batching
        for w_node, form, g in zip(ww, rows @ d_mu, gam):
            vals += w_node * form
            if need_gamma:
                vals += w_node * (g * d_eta).real
    return LogZResult((0,) + act, vals, basepath)


def taubnut_moduli(G: float, D: float, gauge_c: float, mu: float,
                   eta: complex) -> tuple[float, float]:
    """Exact moduli of the two model coordinates of a one-slot model.

    |w_0|^2 = exp(-C - 2 G mu) (r - mu), |w_1|^2 = exp(C + 2 G mu) (r + mu)
    with r = sqrt(mu^2 + D |eta|^2); their product's modulus is
    sqrt(D) |eta| independent of the gauge.
    """
    e2 = D * abs(eta) ** 2
    r = math.hypot(mu, math.sqrt(e2))
    # evaluate the smaller factor as e2 over the larger: no cancellation,
    # and the product (r - mu)(r + mu) = e2 is then exact
    if mu >= 0.0:
        r_plus = r + mu
        r_minus = e2 / r_plus if r_plus > 0.0 else 0.0
    else:
        r_minus = r - mu
        r_plus = e2 / r_minus
    w0 = math.sqrt(math.exp(-gauge_c - 2.0 * G * mu) * r_minus)
    w1 = math.sqrt(math.exp(gauge_c + 2.0 * G * mu) * r_plus)
    return w0, w1


@dataclass
class GrowthFit:
    """Exponential sandwich constants for one model coordinate.

    log|z| = slope * |mu_I| + offset within [log k1, log k3], so
    k1 e^(k2 x) <= |z| / hull_norm <= k3 e^(k4 x) holds on the sample
    with k2 = k4 = slope.
    """

    label: int
    slope: float
    k1: float
    k2: float
    k3: float
    k4: float
    spread: float


def growth_bound_check(A: QuadForm, I: IndexSet, quad: QuadratureSpec,
                       points: list[BasePoint],
                       gauge: np.ndarray | None = None) -> list[GrowthFit]:
    """Fit the exponential envelope of the model coordinates on samples.

    For each label, regresses log|z_j| minus the log of the model hull
    norm against the Euclidean size of the subset slots and reports the
    sandwich constants realized by the residual range.
    """
    G = schur_complement(A, I)
    act = I.active
    xs, ys = [], []
    for p in points:
        res = log_z(A, I, quad, p, gauge=gauge)
        mu_act = p.mu[[a - 1 for a in act]]
        hull = math.sqrt(float(mu_act @ G.entries @ mu_act)
                         + A.det * abs(p.eta) ** 2)
        xs.append(float(np.linalg.norm(mu_act)))
        ys.append(res.values - math.log(hull))
    x = np.array(xs)
    Y = np.stack(ys)
    out = []
    for a, lab in enumerate((0,) + act):
        slope, intercept = np.polyfit(x, Y[:, a], 1)
        resid = Y[:, a] - (slope * x + intercept)
        out.append(GrowthFit(lab, float(slope),
                             math.exp(intercept + float(np.min(resid))),
                             float(slope),
                             math.exp(intercept + float(np.max(resid))),
                             float(slope),
                             float(np.max(resid) - np.min(resid))))
    return out
