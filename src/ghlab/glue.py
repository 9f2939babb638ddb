"""Cutoff machinery: stratum gluing weights and the extension profile.

Two ingredients of the interpolation step live here.  The gluing weight of
a stratum subset is a product of plateau cutoffs, one factor per deeper
subset, comparing the hull norm against the separation scale of that
deeper stratum; it is identically one on the innermost covering region and
identically zero outside the widened one, with exact plateaus because the
cutoff is built from a compactly supported mollifier integral.  The
extension profile is the radial profile (h, H, f) used to continue the
potential outward: linear slope up to a shoulder, a logarithmic tail
beyond, and a quintic bridge between them keeping two derivatives
continuous.  Each piece is written once and evaluated only on its own
stretch of t; f is in closed form up to the tail, where its logarithmic
part is one Gauss-panel integral.  The profile condition compares the
slope against the squared growth of H under the decay floor and is
evaluated in log space so that astronomically large radii stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .geometry import BasePoint, IndexSet, QuadForm, check_batch
from .locus import RegionConstants, _pass, _rho, _row
from .quadrature import panel_nodes

__all__ = [
    "cutoff",
    "GlueWeight",
    "glue_weight",
    "glue_weight_batch",
    "ExtensionProfile",
    "ConditionReport",
    "profile_condition_check",
]

_LOG2 = math.log(2.0)
_LOG3 = math.log(3.0)


# the cutoff's plateau edges: it is 1 up to _INNER and 0 from _OUTER on
_INNER = 0.375
_OUTER = 0.5


def _bump_integral(a, b):
    """Integral of the bump exp(-1/((t - 3/8)(1/2 - t))) from each a to its
    b, for _INNER <= a <= b <= _OUTER, on 4 panels of 32 Gauss nodes."""
    t, w = panel_nodes(np.linspace(a, b, 5, axis=-1), 32)
    inside = (t > _INNER) & (t < _OUTER)
    g = np.where(inside, (t - _INNER) * (_OUTER - t), 1.0)
    return np.sum(w * np.where(inside, np.exp(-1.0 / g), 0.0), axis=-1)


_NORM = float(_bump_integral(_INNER, _OUTER))


def cutoff(x):
    """Smooth cutoff with exact plateaus: 1 below 3/8, 0 above 1/2.

    chi(s) is the normalized integral of the bump from |s| to 1/2, so the
    plateau values are returned exactly, not to roundoff, and cost no
    integral.  A ramp value is integrated from its nearer plateau, all
    in one Gauss pass, so quadrature noise can never take it out of [0, 1].
    """
    s = np.abs(np.asarray(x, dtype=float))
    out = np.where(s <= _INNER, 1.0, 0.0)
    mid = (s > _INNER) & (s < _OUTER)
    if np.any(mid):
        v = s[mid]
        low = v < 0.5 * (_INNER + _OUTER)
        part = _bump_integral(np.where(low, _INNER, v), np.where(low, v, _OUTER)) / _NORM
        out[mid] = np.clip(np.where(low, 1.0 - part, part), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass
class GlueWeight:
    """Gluing weight at a point, and whether the point is in the domain."""

    value: float
    in_domain: bool


def glue_weight_batch(A: QuadForm, I: IndexSet, consts: RegionConstants,
                      mu: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of stratum cutoffs localizing the subset's model region,
    and in-domain flags, (B,) each at the batch mu (B, N), eta (B,).

    One factor per deeper subset J: chi(c0 * hull_norm / rho_IJ), where
    hull_norm is the distance to the subset's affine hull and rho the
    separation scale of J seen from the foot.  A vanishing rho with a
    positive hull norm forces that factor to zero; at the hull itself
    every factor is one.  The flag says whether the point lies in the
    subset's covering region with a boundary collar of width ``consts.cprime()``.
    """
    return _glue(A, I, consts, *check_batch(mu, eta, A.n))


def _glue(A: QuadForm, I: IndexSet, consts: RegionConstants,
          mu: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``glue_weight_batch`` on rows already held finite."""
    I.require_stratum(A.n)
    at = _pass(A, mu, eta)
    i = at.table.row[I.members]
    hull, (_, rho) = at.d[:, i, None], _rho(A, at, i)
    # a vanishing rho puts the hull itself at 0 and any other point at inf
    live = rho > 1e-300
    x = np.where(live, consts.c0 * hull / np.where(live, rho, 1.0),
                 np.where(hull > 1e-300, math.inf, 0.0))
    d, b = at.closed[:, i], at.boundary[:, i]
    return np.multiply.reduce(cutoff(x), axis=1), (consts.c0 * d < b) & (b > consts.cprime())


def glue_weight(A: QuadForm, I: IndexSet, consts: RegionConstants,
                p: BasePoint) -> GlueWeight:
    """``glue_weight_batch`` at one point."""
    value, in_domain = _glue(A, I, consts, *_row(A, p))
    return GlueWeight(float(value[0]), bool(in_domain[0]))


# ---------------------------------------------------------------------------
# extension profile


# value, first and second derivative at s = 0 and at s = 1 of the quintic
# with ascending coefficients c: the bridge's coefficients solve
# _QUINTIC c = (y0, d0, s0, y1, d1, s1)
_QUINTIC = np.array([[1, 0, 0, 0, 0, 0],
                     [0, 1, 0, 0, 0, 0],
                     [0, 0, 2, 0, 0, 0],
                     [1, 1, 1, 1, 1, 1],
                     [0, 1, 2, 3, 4, 5],
                     [0, 0, 2, 6, 12, 20]], dtype=float)


class ExtensionProfile:
    """Radial extension profile: slope h, primitive H, potential f.

    Pieces (in t = squared radius): h = slope for t <= shoulder - 1,
    h = 2 log 2 slope / ((t - shoulder + 2) log(t - shoulder + 2)) for
    t >= shoulder + 1, quintic bridge between.  H is the running integral
    of h, f the running integral of H/t; the two curvature eigenvalues of
    the induced potential are f'(t) = H/t and f' + t f'' = h.
    """

    def __init__(self, slope: float, shoulder: float, decay_floor: float,
                 decay_eps: float) -> None:
        if shoulder <= 2.0:
            raise ValueError("shoulder must exceed 2")
        if slope <= 0.0:
            raise ValueError("slope must be positive")
        if decay_floor <= shoulder + 1.0:
            raise ValueError("decay floor must exceed shoulder + 1")
        if not 0.0 < decay_eps < 1.0:
            raise ValueError("decay exponent margin must be in (0, 1)")
        self.K, self.M = float(slope), float(shoulder)
        self.R1, self.eps = float(decay_floor), float(decay_eps)
        K, M = self.K, self.M
        self._c = 2.0 * _LOG2 * K          # the tail's h = c / (g log g)
        # bridge for H on [M - 1, M + 1] in s = (t - M + 1) / 2, s in [0, 1],
        # matching K t on the left and the tail at g = t - M + 2 = 3
        g = (M + 1.0) - M + 2.0
        hR = self._c / (g * math.log(g))
        hpR = -self._c * (math.log(g) + 1.0) / (g ** 2 * math.log(g) ** 2)
        HR = K * M + self._c * math.log(math.log(3.0))
        self._bridge = np.linalg.solve(_QUINTIC, [K * (M - 1.0), 2.0 * K, 0.0,
                                                  HR, 2.0 * hR, 4.0 * hpR])
        self._dbridge = P.polyder(self._bridge)
        # t = 2 (s + a): with H = (s + a) q(s) + r, the integral of H dt/t
        # from M - 1 is Q(s) + r log1p(s / a), Q the primitive of q at 0
        self._a = 0.5 * (M - 1.0)
        q, r = P.polydiv(self._bridge, [self._a, 1.0])
        self._Q, self._r = P.polyint(q), float(r[0])
        self._f_seam = float(self._f_bridge(np.array(M + 1.0)))

    def _pieces(self, t, left, bridge, right):
        """Each piece on its own t only: ``left`` for t <= M - 1, ``right``
        for t >= M + 1, ``bridge`` between; a float for a scalar t."""
        t = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t)
        out = np.empty_like(ts)
        is_left, is_right = ts <= self.M - 1.0, ts >= self.M + 1.0
        for piece, mask in ((left, is_left), (bridge, ~(is_left | is_right)),
                            (right, is_right)):
            if np.any(mask):
                out[mask] = piece(ts[mask])
        return float(out[0]) if t.ndim == 0 else out

    def _s(self, t: np.ndarray) -> np.ndarray:
        return 0.5 * (t - (self.M - 1.0))

    def _f_bridge(self, t: np.ndarray) -> np.ndarray:
        s = self._s(t)
        return self.K * (self.M - 1.0) + P.polyval(s, self._Q) + self._r * np.log1p(s / self._a)

    def _tail_panels(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # log(v) e^v / (e^v + M - 2) from each lo to its hi, in v = log g
        v, w = panel_nodes(np.stack([lo, hi], axis=-1), 16)
        return np.sum(w * np.log(v) / (1.0 + (self.M - 2.0) * np.exp(-v)), axis=-1)

    def _f_tail(self, t: np.ndarray) -> np.ndarray:
        # f(M + 1) + K M log(t / (M + 1)) + c times the integral of
        # log(v) e^v / (e^v + M - 2) dv from log 3 to log g, on unit-width
        # panels (the integrand is analytic within 1.1 of each): the whole
        # ones summed once, the last one cut at log g
        v = np.log(t - self.M + 2.0)
        k = np.maximum(np.floor(v - _LOG3), 0.0).astype(int)
        edges = _LOG3 + np.arange(k.max() + 1.0)
        whole = np.concatenate([[0.0], np.cumsum(self._tail_panels(edges[:-1], edges[1:]))])
        return (self._f_seam + self.K * self.M * np.log(t / (self.M + 1.0))
                + self._c * (whole[k] + self._tail_panels(edges[k], v)))

    def h(self, t):
        return self._pieces(
            t, lambda t: self.K,
            lambda t: 0.5 * P.polyval(self._s(t), self._dbridge),
            lambda t: self._c / ((t - self.M + 2.0) * np.log(t - self.M + 2.0)))

    def H(self, t):
        return self._pieces(
            t, lambda t: self.K * t,
            lambda t: P.polyval(self._s(t), self._bridge),
            lambda t: self.K * self.M + self._c * np.log(np.log(t - self.M + 2.0)))

    def f(self, t):
        return self._pieces(t, lambda t: self.K * t, self._f_bridge, self._f_tail)

    def f_prime(self, t):
        return self.H(t) / np.asarray(t, dtype=float)

    def f_second(self, t):
        t = np.asarray(t, dtype=float)
        return (self.h(t) * t - self.H(t)) / t ** 2

    # -- log-space forms for huge radii (u = log t): past u = 700, where
    # e^u overflows, t - M + 2 = t (1 + O(e^-u)) to double precision --

    def log_h(self, u):
        u = np.asarray(u, dtype=float)
        big = np.maximum(u, 700.0)
        return np.where(u <= 700.0, np.log(self.h(np.exp(np.minimum(u, 700.0)))),
                        math.log(self._c) - big - np.log(big))

    def log_H(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= 700.0, np.log(self.H(np.exp(np.minimum(u, 700.0)))),
                        np.log(self.K * self.M + self._c * np.log(np.maximum(u, 700.0))))


@dataclass
class ConditionReport:
    """Outcome of the slope-versus-growth scan for a profile.

    The margin at radius-squared t is h(t) - H(t)^2 / (t d(t)^(2 - 2 eps))
    with d(t) = max(decay_floor, log(t)).  positive means the log-gap
    stayed positive over the whole scan.
    """

    positive: bool
    min_loggap: float
    argmin_logt: float


def profile_condition_check(profile: ExtensionProfile) -> ConditionReport:
    """Scan the profile condition over the outward range in log space.

    The scan takes 4096 points in u = log t from the start of the tail
    regime out to twice the decay floor, past the crossover where the
    log-proxy lower bound overtakes the floor.  Sign decisions use the gap
    of logarithms, so no overflow occurs for huge radii.
    """
    u_lo = math.log(max(profile.R1, profile.M + 2.0))
    u = np.linspace(u_lo, max(2.0 * profile.R1, u_lo + 1.0), 4096)
    floor = np.maximum(profile.R1, u)
    log_term = (2.0 * profile.log_H(u) - u
                - 2.0 * (1.0 - profile.eps) * np.log(floor))
    gap = profile.log_h(u) - log_term
    k = int(np.argmin(gap))
    return ConditionReport(bool(gap[k] > 0.0), float(gap[k]), float(u[k]))
