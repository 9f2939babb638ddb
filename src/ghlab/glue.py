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
continuous.  The profile condition compares the slope against the squared
growth of H under the decay floor and is evaluated in log space so that
astronomically large radii stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import BasePoint, IndexSet, QuadForm
from .locus import RegionConstants, _locate, _rho
from .quadrature import panel_nodes

__all__ = [
    "CutoffProfile",
    "GlueWeight",
    "glue_weight",
    "ExtensionProfile",
    "extension_profile",
    "ConditionReport",
    "profile_condition_check",
]

_LOG2 = math.log(2.0)


# the cutoff's plateau edges: it is 1 up to _INNER and 0 from _OUTER on
_INNER = 0.375
_OUTER = 0.5


class CutoffProfile:
    """Smooth cutoff with exact plateaus: 1 below 3/8, 0 above 1/2.

    chi(s) is the normalized integral of the bump
    exp(-1/((t - 3/8)(1/2 - t))) from s to 1/2, on 32-point Gauss panels,
    so the plateau values are returned exactly, not to roundoff.
    """

    def __init__(self) -> None:
        self._norm = self._integrate(_INNER, _OUTER)

    def _bump(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        inside = (t > _INNER) & (t < _OUTER)
        g = np.where(inside, (t - _INNER) * (_OUTER - t), 1.0)
        return np.where(inside, np.exp(-1.0 / g), 0.0)

    def _integrate(self, a: float, b: float) -> float:
        # every caller passes _INNER <= a < b <= _OUTER
        nodes, wts = panel_nodes(np.linspace(a, b, 5), 32)
        return float(np.sum(wts * self._bump(nodes)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        s = np.abs(x)
        out = np.where(s <= _INNER, 1.0, 0.0)
        mid = (s > _INNER) & (s < _OUTER)
        if np.any(mid):
            # integrate from the nearer plateau so the ramp value can
            # never leave [0, 1] through quadrature noise
            half = 0.5 * (_INNER + _OUTER)
            vals = np.array([
                1.0 - self._integrate(_INNER, float(v)) / self._norm
                if v < half else
                self._integrate(float(v), _OUTER) / self._norm
                for v in s[mid]])
            out = out.copy()
            out[mid] = np.clip(vals, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out


_CHI = CutoffProfile()


@dataclass
class GlueWeight:
    """Gluing weight at a point together with its factor arguments."""

    value: float
    hull_norm: float
    arguments: dict[tuple[int, ...], float]
    in_domain: bool


def glue_weight(A: QuadForm, I: IndexSet, consts: RegionConstants,
                p: BasePoint) -> GlueWeight:
    """Product of stratum cutoffs localizing the subset's model region.

    One factor per deeper subset J: chi(c0 * hull_norm / rho_IJ), where
    hull_norm is the distance to the subset's affine hull and rho the
    separation scale of J seen from the foot.  A vanishing rho with a
    positive hull norm forces that factor to zero; at the hull itself
    every factor is one.  ``in_domain`` says whether the point lies in
    the subset's covering region with a boundary collar of width
    ``consts.cprime()``.
    """
    at, i = _locate(A, I, p)
    hull = float(at.d[i])
    args: dict[tuple[int, ...], float] = {}
    value = 1.0
    comp = at.table.comp[i]
    for K in (K for k in range(1, len(comp) + 1) for K in combinations(comp, k)):
        rho = _rho(at, i, K)
        # a vanishing rho puts the hull itself at 0 and any other point at inf
        if rho <= 1e-300:
            args[K] = math.inf if hull > 1e-300 else 0.0
        else:
            args[K] = consts.c0 * hull / rho
        value *= float(_CHI(args[K]))
    d, b = float(at.closed[i]), float(at.boundary[i])
    in_domain = bool(consts.c0 * d < b and b > consts.cprime())
    return GlueWeight(value, hull, args, in_domain)


# ---------------------------------------------------------------------------
# extension profile


def _hermite_quintic(y0, d0, s0, y1, d1, s1) -> np.ndarray:
    """Coefficients (ascending) of the quintic on [0, 1] matching value,
    first and second derivative at both ends."""
    Mt = np.zeros((6, 6))
    for j in range(6):
        Mt[0, j] = 1.0 if j == 0 else 0.0
        Mt[1, j] = 1.0 if j == 1 else 0.0
        Mt[2, j] = 2.0 if j == 2 else 0.0
        Mt[3, j] = 1.0
        Mt[4, j] = j
        Mt[5, j] = j * (j - 1)
    rhs = np.array([y0, d0, s0, y1, d1, s1])
    return np.linalg.solve(Mt, rhs)


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
        self.K = float(slope)
        self.M = float(shoulder)
        self.R1 = float(decay_floor)
        self.eps = float(decay_eps)
        K, M = self.K, self.M
        # bridge for H on [M - 1, M + 1], parametrized by s in [0, 1]
        hL = K
        hpL = 0.0
        t_r = M + 1.0
        g = t_r - M + 2.0            # = 3
        hR = 2.0 * _LOG2 * K / (g * math.log(g))
        hpR = -2.0 * _LOG2 * K * (math.log(g) + 1.0) / (g ** 2 * math.log(g) ** 2)
        HL = K * (M - 1.0)
        HR = K * M + 2.0 * _LOG2 * K * math.log(math.log(3.0))
        self._bridge = _hermite_quintic(HL, 2.0 * hL, 4.0 * hpL,
                                        HR, 2.0 * hR, 4.0 * hpR)
        self._dbridge = np.polynomial.polynomial.polyder(self._bridge)
        # f constants: continuous at the bridge ends
        nodes, wts = panel_nodes(np.linspace(M - 1.0, M + 1.0, 9), 32)
        self._f_left_end = K * (M - 1.0)
        bridge_H = self._H_bridge(nodes)
        f_at_right = self._f_left_end + float(np.sum(wts * bridge_H / nodes))
        lg = math.log(3.0)
        self._f_tail_const = f_at_right - (K * M * math.log(M + 1.0)
                                           + 2.0 * _LOG2 * K * lg * (math.log(lg) - 1.0))

    # -- piecewise evaluators (vectorized over t) --

    def _s(self, t: np.ndarray) -> np.ndarray:
        return 0.5 * (np.asarray(t, dtype=float) - (self.M - 1.0))

    def _H_bridge(self, t: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(self._s(t), self._bridge)

    def _h_bridge(self, t: np.ndarray) -> np.ndarray:
        return 0.5 * np.polynomial.polynomial.polyval(self._s(t), self._dbridge)

    def h(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        K, M = self.K, self.M
        out = np.empty_like(t)
        left = t <= M - 1.0
        right = t >= M + 1.0
        mid = ~(left | right)
        out[left] = K
        g = np.where(right, t - M + 2.0, 3.0)
        out[right] = (2.0 * _LOG2 * K / (g * np.log(g)))[right]
        if np.any(mid):
            out[mid] = self._h_bridge(t[mid])
        return float(out[0]) if scalar else out

    def H(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        K, M = self.K, self.M
        out = np.empty_like(t)
        left = t <= M - 1.0
        right = t >= M + 1.0
        mid = ~(left | right)
        out[left] = K * t[left]
        g = np.where(right, t - M + 2.0, 3.0)
        out[right] = (K * M + 2.0 * _LOG2 * K * np.log(np.log(g)))[right]
        if np.any(mid):
            out[mid] = self._H_bridge(t[mid])
        return float(out[0]) if scalar else out

    def f(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        K, M = self.K, self.M
        out = np.empty_like(t)
        left = t <= M - 1.0
        right = t >= M + 1.0
        mid = ~(left | right)
        out[left] = K * t[left]
        g = np.where(right, t - M + 2.0, 3.0)
        lg = np.log(g)
        out_r = (K * M * np.log(np.where(right, t, 1.0))
                 + 2.0 * _LOG2 * K * lg * (np.log(lg) - 1.0) + self._f_tail_const)
        out[right] = out_r[right]
        for i in np.nonzero(mid)[0]:
            nodes, wts = panel_nodes(np.linspace(M - 1.0, float(t[i]), 5), 32)
            out[i] = self._f_left_end + float(np.sum(wts * self._H_bridge(nodes) / nodes))
        return float(out[0]) if scalar else out

    def f_prime(self, t):
        return self.H(t) / np.asarray(t, dtype=float) if np.ndim(t) else self.H(t) / float(t)

    def f_second(self, t):
        if np.ndim(t) == 0:
            tf = float(t)
            return (self.h(t) * tf - self.H(t)) / tf ** 2
        t = np.asarray(t, dtype=float)
        return (self.h(t) * t - self.H(t)) / t ** 2

    # -- log-space forms for huge radii (u = log t) --

    def log_h(self, u: np.ndarray) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty_like(u)
        small = u <= 700.0
        if np.any(small):
            out[small] = np.log(self.h(np.exp(u[small])))
        big = ~small
        if np.any(big):
            # t - M + 2 = t (1 + O(e^-u)); corrections below double precision
            out[big] = (math.log(2.0 * _LOG2 * self.K) - u[big]
                        - np.log(u[big]))
        return out

    def log_H(self, u: np.ndarray) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty_like(u)
        small = u <= 700.0
        if np.any(small):
            out[small] = np.log(self.H(np.exp(u[small])))
        big = ~small
        if np.any(big):
            out[big] = np.log(self.K * self.M
                              + 2.0 * _LOG2 * self.K * np.log(u[big]))
        return out


def extension_profile(slope: float, shoulder: float, decay_floor: float,
                      decay_eps: float) -> ExtensionProfile:
    """Build the radial extension profile; see ExtensionProfile."""
    return ExtensionProfile(slope, shoulder, decay_floor, decay_eps)


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
    margin_at_argmin: float


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
    lg = float(gap[k])
    lh = float(profile.log_h(u[k : k + 1])[0])
    margin = math.exp(lh) * (1.0 - math.exp(-lg)) if lg > -700 else -math.inf
    return ConditionReport(bool(lg > 0.0), lg, float(u[k]), margin)
