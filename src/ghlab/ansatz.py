"""Coefficient fields of the generalized ansatz.

Three families of coefficient data (V, W) on the base are provided: the
exact flat model (the standard structure written in base coordinates,
V^{-1} and W values only, from ``flat_field``), the first-order
asymptotic field built from the Green kernels on top of a background form
A, and the model field of a stratum subset, that of its reduced form.
The first-order data satisfies the linearized equations exactly and the
nonlinear volume identity up to a controlled error, whose relative size
is the sigma-expansion tail computed here from the eigenvalues of
A^{-1} v; its route through det(A + v) is a test oracle.

A first-order or model field's ``jet(mu, eta)`` takes a batch of points
as two arrays, mu (B, N) and eta (B,), puts the whole batch and all the
field's kernels into one ``kernels.alpha_family`` call (one engine call),
and returns one stacked ``FieldJet`` of values whose arrays carry a
leading B; a single point is a batch of one.  The first-order field's
derivatives are its kernels' ``kernels.alpha_hessian``, which
``ghlab.frame`` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import BasePoint, IndexSet, QuadForm, check_batch, reduction
from .kernels import alpha_batch  # noqa: F401  perfbench/tracing.py patches it here
from .kernels import alpha_family
from .locus import dist_closed_stratum  # noqa: F401  perfbench/tracing.py patches it here
from .quadrature import QuadratureSpec

__all__ = [
    "FlatFieldResult",
    "flat_field",
    "FieldJet",
    "FirstOrderField",
    "RestrictedField",
    "SigmaExpansion",
    "sigma_expansion",
    "Ray",
    "DecayFit",
    "decay_scan",
]


# ---------------------------------------------------------------------------
# flat model


@dataclass
class FlatFieldResult:
    """Exact flat-model data at one base point.

    z_squared lists the squared moduli of the upstairs coordinates,
    index 0 first.  On the degeneration locus (two or more vanishing
    moduli) the coefficients are singular and V_inv, W are None.
    """

    x: float
    z_squared: np.ndarray
    on_locus: bool
    V_inv: np.ndarray | None
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
        x = _flat_root(np.concatenate([[x_lo], x_lo + 2.0 * mu]), target, x_lo, hi)

    zsq = np.concatenate([[x], x + 2.0 * mu])
    scale = max(1.0, float(np.max(zsq)))
    n_zero = int(np.sum(zsq <= 1e-13 * scale))
    if n_zero >= 2:
        return FlatFieldResult(x, zsq, True, None, None)

    V_inv = np.full((N, N), x) + np.diag(zsq[1:])
    w_inv = 0.0
    for i in range(N + 1):
        w_inv += float(np.prod(np.delete(zsq, i)))
    return FlatFieldResult(x, zsq, False, V_inv, 1.0 / w_inv)


def _flat_root(z_lo: np.ndarray, target: float, lo: float, hi: float) -> float:
    """The x in [lo, hi] with prod_i (z_lo_i + x - lo) = target, to within
    1e-300 + 1e-15 hi + 8.9e-16 |x| (brentq's tolerance on that bracket).
    The factors z_lo_i >= 0 at lo make lo the product's largest root.

    In t = log(x - lo) the log of the product, sum_i log(e^t + z_lo_i), is
    convex and increasing, with slope between the number of zero z_lo_i
    and len(z_lo), so Newton's method in t converges fast from anywhere; a
    step that leaves the bracket bisects it instead.
    """
    xtol = 1e-300 + 1e-15 * hi
    y_lo, y_hi = 0.0, hi - lo
    y = y_hi
    for _ in range(100):
        z = y + z_lo
        # the log of a ratio near 1, not a difference of large logs
        g = math.log(float(np.prod(z)) / target)
        if g == 0.0:
            return lo + y
        if g > 0.0:
            y_hi = y
        else:
            y_lo = y
        y_new = y * math.exp(-g / float(np.sum(y / z)))
        if abs(y_new - y) <= xtol + 8.9e-16 * abs(lo + y_new):
            return lo + y_new
        if not y_lo < y_new < y_hi:
            y_new = 0.5 * (y_lo + y_hi)
        y = y_new
    raise RuntimeError("the flat-model root did not converge in 100 steps")


# ---------------------------------------------------------------------------
# first-order and restricted fields


@dataclass
class FieldJet:
    """Values of a coefficient field, stacked over B points: V and v
    (B, N, N); W and quad_error (B,).  quad_error is each point's
    largest prefactor-scaled error estimate over the kernels; an integral
    that misses its tolerance raises QuadratureError instead.
    """

    V: np.ndarray
    W: np.ndarray
    v: np.ndarray
    quad_error: np.ndarray


@lru_cache(maxsize=64)
def _outers(N: int, labels: tuple[tuple[int, int], ...]) -> np.ndarray:
    """(K, N N), read-only: kernel (i, j)'s (e_i - e_j)(e_i - e_j)^T, e_0 = 0."""
    e = (np.eye(N + 1)[[i for i, _ in labels]] - np.eye(N + 1)[[j for _, j in labels]])[:, 1:]
    table = (e[:, :, None] * e[:, None, :]).reshape(len(labels), N * N)
    table.flags.writeable = False
    return table


def _first_order_v(A: QuadForm, quad: QuadratureSpec, mu: np.ndarray, eta: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The first-order v (B, N, N) at a batch of points and its kernels'
    error estimates (K, B), from one ``kernels.alpha_family`` batch: every
    kernel of A in one engine call."""
    N = A.n
    labels, kv = alpha_family(A, quad, mu, eta)
    # one product with the label outers, summed over kernels slice by
    # slice from 0 in label order, so a row is the same in any batch
    v = (kv.value[:, :, None] * _outers(N, labels)[:, None]).sum(axis=0, initial=0.0)
    return v.reshape(-1, N, N), kv.error


def _jets(A: QuadForm, quad: QuadratureSpec, mu: np.ndarray, eta: np.ndarray) -> FieldJet:
    """The stacked field jet at a batch of points, from ``_first_order_v``."""
    v, err = _first_order_v(A, quad, mu, eta)
    return _field_jet(A, v, err.max(axis=0))


def _field_jet(A: QuadForm, v: np.ndarray, err: np.ndarray) -> FieldJet:
    """The jet of V = A + v and W = det A + w, w = det A tr(A^{-1} v), from
    v (B, N, N)."""
    N = A.n
    # each point's sums reduce one contiguous row, as a lone point's would
    w = A.det * (A.inv * v).reshape(len(v), N * N).sum(axis=1)
    return FieldJet(A.entries + v, A.det + w, v, err)


class FirstOrderField:
    """First-order asymptotic coefficient field over a background form."""

    def __init__(self, A: QuadForm, quad: QuadratureSpec) -> None:
        self.A = A
        self.quad = quad

    def jet(self, mu: np.ndarray, eta: np.ndarray) -> FieldJet:
        return _jets(self.A, self.quad, mu, eta)


class RestrictedField:
    """Model coefficient field attached to a stratum subset I: V - A is
    the first-order v of I's reduction G at (mu_I, s eta), placed in I's
    block, and W is formed against A."""

    def __init__(self, A: QuadForm, I: IndexSet, quad: QuadratureSpec) -> None:
        I.require_stratum(A.n)
        if not I.contains_zero:
            raise ValueError("restricted fields are built for subsets containing 0")
        self.A, self.I, self.quad = A, I, quad

    def jet(self, mu: np.ndarray, eta: np.ndarray) -> FieldJet:
        N, red = self.A.n, reduction(self.A, self.I)
        mu, eta = check_batch(mu, eta, N)
        jet = _jets(red.G, self.quad, *red.batch(mu, eta))
        # G's v placed in I's block
        v = np.zeros((len(mu), N, N))
        v[(slice(None),) + np.ix_(red.slots, red.slots)] = jet.v
        return _field_jet(self.A, v, jet.quad_error)


# ---------------------------------------------------------------------------
# sigma expansion


@dataclass
class SigmaExpansion:
    """Elementary symmetric data of the perturbation relative to A.

    sigmas[k-1] is the k-th elementary symmetric function of the
    eigenvalues of A^{-1} v; relative_error is the normalized volume
    defect -sum_{k>=2} sigma_k / (1 + sum_k sigma_k).  The tests hold it
    against the route through det(A + v) in ``tests/oracles.py``.
    """

    sigmas: np.ndarray
    relative_error: float


def sigma_expansion(A: QuadForm, v: np.ndarray) -> SigmaExpansion:
    v = np.asarray(v, dtype=float)
    if v.shape != (A.n, A.n):
        raise ValueError("perturbation shape mismatch")
    # the eigenvalues of the pencil (v, A) as those of C^-1 v C^-T, A = C C^T
    C_inv = A.derived("cholesky_inv", lambda: np.linalg.inv(np.linalg.cholesky(A.entries)))
    eigs = np.linalg.eigvalsh(C_inv @ (0.5 * (v + v.T)) @ C_inv.T)
    coeffs = np.poly(eigs)          # monic, length N+1
    sigmas = np.array([(-1.0) ** k * coeffs[k] for k in range(1, A.n + 1)])
    total = 1.0 + float(np.sum(sigmas))
    tail = float(np.sum(sigmas[1:])) if A.n >= 2 else 0.0
    return SigmaExpansion(sigmas, -tail / total)


# ---------------------------------------------------------------------------
# decay scans and stratum weights


@dataclass(frozen=True)
class Ray:
    """Straight sampling ray p(r) = (base_mu + r * dir_mu, base_eta) at a
    fixed fiber coordinate."""

    dir_mu: np.ndarray
    base_mu: np.ndarray | None = None
    base_eta: complex = 0j
    label: str = "ray"


@dataclass
class DecayFit:
    """Log-log fit of the volume defect along a ray."""

    exponent: float
    intercept: float
    max_residual: float
    scales: np.ndarray
    values: np.ndarray
    label: str


_DECAY_RADII = 8.0 * 2.0 ** (0.5 * np.arange(17))


def decay_scan(A: QuadForm, quad: QuadratureSpec, ray: Ray) -> DecayFit:
    """Measure the decay exponent of the relative volume defect on a ray.

    Samples |relative_error| of the first-order field at the 17 radii
    ``_DECAY_RADII`` = 8 * 2^(k/2), k = 0..16, all in one field jet call,
    measures each against its anisotropic distance to the origin,
    sqrt(mu^T A mu + det A |eta|^2), and fits a power law by least squares
    in log-log.  A ray with fewer than two nonzero finite defects, where no
    line can be fitted, is refused with ValueError naming it.
    """
    base = 0.0 if ray.base_mu is None else ray.base_mu
    mu = base + _DECAY_RADII[:, None] * ray.dir_mu
    eta = complex(ray.base_eta)
    jet = FirstOrderField(A, quad).jet(mu, np.full(len(mu), eta))
    xs, ys = [], []
    for m, v in zip(mu, jet.v):
        val = abs(sigma_expansion(A, v).relative_error)
        if val > 0.0 and np.isfinite(val):
            xs.append(math.sqrt(float(np.einsum("i,ij,j", m, A.entries, m))
                                + A.det * abs(eta) ** 2))
            ys.append(val)
    if len(xs) < 2:
        raise ValueError(f"decay scan of ray {ray.label!r}: {len(xs)} of {len(mu)} radii have a "
                         "nonzero finite volume defect, and a fit needs two")
    x = np.log(np.array(xs))
    y = np.log(np.array(ys))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return DecayFit(-float(slope), float(intercept), resid,
                    np.exp(x), np.exp(y), ray.label)

