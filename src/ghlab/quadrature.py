"""Deterministic quadrature engine for the singular orthant integrals.

Every kernel in this package is an integral over an orthant of a power of
an anisotropic distance,

    integral over tau in R_+^d of ((b - M tau)^T Q (b - M tau) + E)^(-p/2),

E = c |eta|^2, optionally with the same integral at p + 2, p + 4, ...
from the same pass.  The integrand is smooth but sharply peaked where the
affine sheet {b - M tau} passes closest to the origin, and it decays like
|tau|^(-p) with p > d, so the mass beyond radius T is ~ T^(d-p).

The last two cone columns m1, m2 are integrated in closed form.  With
X0 = b - M' tau' for the first d - 2 parameters, Q-orthonormal coordinates
of the plane of m1 and m2 turn the quadrant {t1 m1 + t2 m2} into a planar
wedge W with apex 0 and opening phi, cos phi = G12 / sqrt(G11 G22) with
G = M^T Q M on those columns, and the integrand into
(H^2 + |y - y0|^2)^(-p/2) dA / sqrt(det G): y0 is the Q-foot of X0 in the
plane and H^2 its squared Q-height above the plane plus E, formed from the
transverse part of X0, never as a difference.  With
Phi(rho) = [H^(2-p) - (H^2 + rho^2)^((2-p)/2)] / (p - 2), the divergence of
Phi(|y - y0|) (y - y0) / |y - y0|^2 is the integrand, so (the analytic
potential of a planar polygon in boundary elements: Wilton et al. 1984,
IEEE Trans. Antennas Propag. 32:276; Newman 1986, J. Eng. Math. 20:113)

    int_W = phi H^(2-p) / (p - 2) + sum_k sign(l_k) A_k,

where A_k >= 0 integrates Phi over the angle Theta_k that edge k subtends
at y0, and l_k is the signed distance from y0 to edge k's line, positive
on the wedge's side.  ``wedge_integrals`` uses this form where y0 lies in
W: every term is positive.  Per edge, with n = p - 2, the scaled term
(p - 2) H^n A_k grows from n to n + 2 by |l| H^n J_(n+2), J_q the
half-line integral of ((t - s0)^2 + c^2)^(-q/2) along the edge, s0 the
foot's position along it and c^2 = H^2 + l^2, starting from 0 (n even)
or an arctangent (n odd), so W_(p+2) is one more step.  Outside
W the terms of size H^(2-p) add up to the winding angle 0, so they are
dropped and int_W = -sum_k sign(l_k) B_k with

    B_k = integral_0^Theta_k (H^2 + l_k^2 / sin^2 chi)^((2-p)/2) d chi / (p - 2)
        = Theta_k H^(2-p) / (p - 2) - A_k.

The difference keeps the fraction r = (p - 2) H^(p-2) B_k / Theta_k of
its terms, the mean over chi of (1 + lambda^2 / sin^2 chi)^((2-p)/2) with
lambda = |l_k| / H.  For small Theta_k and lambda >> Theta_k it is about
(Theta_k / lambda)^(p-2) / (p - 1), so H > |l_k| does not bound the bits
the difference loses.  It serves where r >= 2^-4, at most 4 bits lost,
which holds a budget of 1e-14 relative per edge term; elsewhere a Gauss
rule in chi evaluates B_k to rounding, because the integrand's poles
chi = +-i asinh(lambda) then lie outside the rule's Bernstein ellipse.
The worst conditioning left is about 1/phi, for thin wedges seen from the
side.

For one cone column (d = 1) the integrand along m is
(a t^2 - 2 beta t + gamma)^(-p/2), and ``half_line_integrals`` evaluates
J_p = a^((p-2)/2) D^((1-p)/2) times an angle integral of cos^(p-2) without
cancellation (an all-positive Wallis recursion where beta >= 0, a positive
power series in sin^2 where beta < 0 and the angle is small), D formed as
a times a Q-distance to the line.

So at d <= 2 nothing is swept and every row is a closed form with error
0.  Each contraction of a closed form's rows is an ``np.einsum``, which
sums every entry in one order, and the tests hold each row to the same
bits alone and in any batch; a BLAS product picks its kernel, and with it
the rounding, by the batch's shape (one row or more).  The engine takes
rows b (B, m), eta (B,) and a stack of cone matrices M (K, m, d) of
kernels that share Q, c_eta and the power; the form's part
(``cone_frame``) carries the kernel axis, and every (kernel, row) pair is
evaluated in one pass.  For every k = d - 2 >= 1 the other parameters
tau'' of each group of a kernel's rows are swept on one grid in
polar form tau'' = r omega, r = |tau''|_1, d tau'' = r^(k-1) dr d omega,
with omega on the simplex by stick-breaking (omega_1 = u_1,
omega_2 = (1 - u_1) u_2, ..., the stick left last), which maps the cube
[0, 1]^(k-1) onto it (the Duffy transform: Duffy 1982, SIAM J. Numer.
Anal. 19:1260).  Gauss-Legendre panels are graded geometrically around
the orthant-projected closest point tau*: in r on [0, R], in each u_i on
[0, 1] with breaks at the quarters.  One more panel covers [R, inf) under
r = R / s, s in (0, 1], weight R / s^2; the integrand decays like r^(2-p)
along every ray past the closed-form columns, so the mapped integrand is
R^(k+2-p) s^(p-k-3) g(s, omega) with g analytic for |s| < R / rho, rho
bounding the complex zeros in r of the squared distances from X0 to the
plane, to both edge lines and to the apex.  So nothing is truncated at any
d, and the error estimate is the difference of two Gauss orders on the
same grid; at k = 1 the grid is the graded half line and its tail panel.
The construction depends only on the inputs, so results are
bit-reproducible.  A group keeps only rows within half its first row's
sheet distance of that row, where the grid resolves them too.  An
integral that misses its tolerance after the refinement passes raises
QuadratureError; no unconverged value is returned.  A call that asks for
several powers p, p + 2, ... gets each from every node of the same grids,
and the two-order check holds every one.  The engine returns no derivative:
``ghlab.kernels`` takes them from these values and the cones' faces,
which a closed-form call returns from its own pass.

The independent scrambled-Sobol quasi-Monte-Carlo evaluator of the same
integral, which the tests hold this engine against, is
``tests/oracles.py``'s ``qmc_power_kernel_integral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .geometry import _finite

_einsum = np.einsum.__wrapped__   # np.einsum less its dispatch, about a small contraction's cost

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "QuadratureError",
    "SingularityProximity",
    "cone_frame",
    "half_line_integrals",
    "wedge_integrals",
    "nonneg_argmin",
    "power_kernel_integral",
    "sheet_distance",
    "gauss_rule",
    "panel_nodes",
]


class _Refusal:
    """An engine refusal naming its pair: ``kernel`` and ``row`` index M and b."""

    def __init__(self, message: str, kernel: int | None = None,
                 row: int | None = None) -> None:
        super().__init__(message)
        self.kernel, self.row = kernel, row


class QuadratureError(_Refusal, RuntimeError):
    """Raised when the engine cannot deliver the requested tolerance: for a
    sweep that misses it, the pair that missed; for a grid over the node
    budget, its kernel and the first row of the group it was built for."""


class SingularityProximity(_Refusal, ValueError):
    """Evaluation point too close to the integrand's singular sheet."""


@dataclass(frozen=True)
class QuadratureSpec:
    """The tolerance a caller requests from the panel engine.

    An integral converges when its error is at most
    max(abs_tol, _REL_TOL |v|) in the final (prefactor-scaled) kernel
    value v.  The error is the two-order Gauss difference on the radial
    grid of the swept d - 2 parameters, whose mapped tail panel reaches
    infinity, so nothing is truncated.  The last two cone parameters are integrated
    exactly, so at d <= 2 the error is 0.  The relative tolerance, the
    Gauss orders, the node budget and the refinement passes are the fixed
    module constants ``_REL_TOL``, ``_ORDER``, ``_ORDER_LOW``,
    ``_MAX_EVALS`` and ``_REFINE_PASSES``.
    """

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be positive and finite, not {self.abs_tol}")


@dataclass
class QuadResult:
    """An engine call's raw results."""

    value: np.ndarray          # (K, B) raw integral values at the power, no prefactor
    error: np.ndarray          # (K, B) two-order differences at the power, raw units
    higher: list[np.ndarray]   # (K, B) each: raw values at power + 2, + 4, ..., as asked
    faces: np.ndarray | None   # (K, d, B) raw values of the faces at the power, column
                               # j: the cone less column j (two or more powers, d <= 2)
    evals: int                 # swept grid nodes times rows (kernel rows if none swept)
    converged: bool            # always True, a miss raises (perfbench/tracing.py reads it)
    r_star: float              # the least sheet distance solved (every pair's at d <= 2)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), by the three-term recurrence for P_n and P_(n-1)."""
    p, q = x, np.ones_like(x)
    for j in range(2, n + 1):
        p, q = ((2 * j - 1) * x * p - (j - 1) * q) / j, p
    return p, n * (q - x * p) / (1.0 - x * x)


@lru_cache(maxsize=32)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method on P_n from the nodes' asymptotic guesses
    cos(pi (k - 1/4) / (n + 1/2)) stops on a step of at most 1e-15; the
    weights are 2 / ((1 - x^2) P_n'(x)^2) at the last nodes (Hale and
    Townsend 2013, SIAM J. Sci. Comput. 35:A652).  Nodes and weights are
    then made symmetric and the weights scaled to sum to 2.  Against a
    50-digit rule at orders 8 to 32 the nodes are within 1e-16 and the
    weights within 1.1e-14 relative, where an eigensolver's rule (numpy's
    ``leggauss``) reads 1.2e-13; no LAPACK call is made.
    """
    if order < 1:
        raise ValueError("a Gauss rule needs at least one node")
    x = np.cos(np.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    # quadratic convergence: 4 or 5 steps at the orders the engine uses
    for _ in range(100):
        p, dp = _legendre(order, x)
        step = p / dp
        x -= step
        if np.abs(step).max() <= 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * _legendre(order, x)[1] ** 2)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    w *= 2.0 / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panel_nodes(breaks: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the panels between consecutive breaks,
    along the last axis of ``breaks``: one row of nodes per leading index."""
    x, w = gauss_rule(order)
    a = breaks[..., :-1]
    h = np.diff(breaks)
    nodes = a[..., None] + 0.5 * h[..., None] * (x + 1.0)
    wts = 0.5 * h[..., None] * w
    n = (breaks.shape[-1] - 1) * order
    return nodes.reshape(*breaks.shape[:-1], n), wts.reshape(*breaks.shape[:-1], n)


def nonneg_argmin(P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize tau^T P tau - 2 q^T tau over tau >= 0, exactly, for SPD P,
    by enumerating the 2^d active sets and checking the KKT sign
    conditions (d is at most 4 or 5 here).  Returns (tau*, minimum value).
    """
    d = P.shape[0]
    scale = max(float(np.max(np.abs(q))), float(np.max(np.abs(P))), 1.0)
    best: tuple[float, np.ndarray] | None = None
    idx = list(range(d))
    for k in range(d + 1):
        for free in combinations(idx, k):
            tau = np.zeros(d)
            if free:
                F = list(free)
                try:
                    x = np.linalg.solve(P[np.ix_(F, F)], q[F])
                except np.linalg.LinAlgError:
                    continue
                if np.any(x < -1e-12 * scale):
                    continue
                tau[F] = np.maximum(x, 0.0)
            grad = P @ tau - q
            fixed = [i for i in idx if i not in free]
            if fixed and np.any(grad[fixed] < -1e-9 * scale):
                continue
            val = float(tau @ P @ tau - 2.0 * q @ tau)
            if best is None or val < best[0]:
                best = (val, tau)
    assert best is not None  # free = all indices always yields a candidate
    return best[1], best[0]


def sheet_distance(Q: np.ndarray, M: np.ndarray, b: np.ndarray,
                   E: float) -> tuple[np.ndarray, float]:
    """Closest sheet parameter tau* >= 0 and the distance
    r* = sqrt(|b - M tau*|_Q^2 + E) from the point b to the sheet of one
    cone matrix M (m, d), by ``nonneg_argmin``: the swept path's solver, and
    the oracle of the distances the closed forms read at d <= 2."""
    tau, _ = nonneg_argmin(M.T @ Q @ M, M.T @ (Q @ b))
    x = b - M @ tau
    return tau, math.sqrt(float(x @ Q @ x) + E)


def _grid_groups(Q: np.ndarray, c_eta: float, M: np.ndarray, b: np.ndarray,
                 eta: np.ndarray, E: np.ndarray, floor: float
                 ) -> tuple[list[tuple[np.ndarray, tuple]], tuple[float, int], float]:
    """Rows of one kernel (cone matrix M (m, d)) that may share one panel
    grid, each group with its first row's sheet solution (tau*, r*); a
    lower bound on every row's sheet distance, exact wherever it is at most
    ``floor``, with its row; and the smallest distance solved.

    Each group is the first unplaced row plus every unplaced row whose
    (Q, c_eta) offset from it is within half its sheet distance r*.  The
    sheet distance is 1-Lipschitz in that norm, so r* less the group's
    widest offset bounds the group; only at or below the floor is each row
    solved exactly.
    """
    todo = np.arange(len(b))
    groups, nearest, solved = [], (math.inf, 0), math.inf
    while todo.size:
        k = todo[0]
        sheet = sheet_distance(Q, M, b[k], E[k])
        r_k = sheet[1]
        db = b[todo] - b[k]
        off = np.sqrt(((db @ Q) * db).sum(axis=1)
                      + c_eta * np.abs(eta[todo] - eta[k]) ** 2)
        near = off <= 0.5 * r_k
        rows = todo[near]
        bound = (r_k - float(np.max(off[near])), int(k))
        if bound[0] <= floor:
            bound = min((sheet_distance(Q, M, b[j], E[j])[1], int(j)) for j in rows)
            solved = min(solved, bound[0])
        groups.append((rows, sheet))
        nearest = min(nearest, bound)
        solved = min(solved, r_k)
        todo = todo[~near]
    return groups, nearest, solved


def _axis_breakpoints(center: float, width: float, T: float,
                      fine_levels: int = 3, fixed: tuple[float, ...] = (),
                      extra_split: int = 0) -> np.ndarray:
    """Geometric panel breakpoints on [0, T] clustered around ``center``,
    with the ``fixed`` breaks as well; a refinement pass adds a fine level
    and halves every panel."""
    pts = {0.0, T, *fixed}
    c = min(max(center, 0.0), T)
    if 0.0 < c < T:
        pts.add(c)
    # refine below the peak scale, then grow geometrically to the ends
    for j in range(-fine_levels - extra_split, 60):
        step = width * (2.0 ** j)
        inside = [x for x in (c - step, c + step) if 0.0 < x < T]
        pts.update(inside)
        if j > 0 and not inside:
            break
    breaks = np.array(sorted(pts))
    # drop near-duplicates only, relative to the break itself: a threshold
    # relative to T would merge the peak's fine panels once T is large
    keep = np.concatenate([[True], np.diff(breaks) > 1e-13 * breaks[1:]])
    breaks = breaks[keep]
    if extra_split:
        breaks = np.sort(np.concatenate([breaks, 0.5 * (breaks[:-1] + breaks[1:])]))
    return breaks


# the graded radial panels end at this multiple of the swept parameters'
# largest length scale, where the mapped tail panel takes over: the
# integrand's singularities then sit at |s| >= 4, so an n-point Gauss rule
# on (0, 1] errs by about 18^(-2n) there
_TAIL_START = 4.0

# the relative tolerance every converged value meets beside its spec's
# abs_tol, the two Gauss orders whose difference estimates the error of a
# swept integral, the grid nodes per batch row that one pass may take, and
# the extra, finer passes tried before QuadratureError is raised
_REL_TOL = 1e-8
_ORDER = 16
_ORDER_LOW = 8
_MAX_EVALS = 4_000_000
_REFINE_PASSES = 1

# every stick-breaking coordinate keeps these breaks, so no lone coarse
# panel spans the unit interval away from the peak
_SIMPLEX_BREAKS = (0.25, 0.5, 0.75)


# ---------------------------------------------------------------------------
# the closed forms: one cone column (a half line) and two (a wedge)

# below this sin^2(phi0), with beta < 0, the Wallis recursion would lose
# digits to cancellation; the power series of _sine_power_sums takes over
# there, and its terms j < 28 reach 2^-53 at x < 1/4
_SERIES_X = 0.25
_SERIES_J = np.arange(28.0)
_SERIES_C = np.array([math.comb(2 * j, j) / 4.0 ** j for j in range(28)])


@lru_cache(maxsize=16)
def _series_coef(ks: tuple[int, ...]) -> np.ndarray:
    """binom(2j, j) 4^(-j) / (k + 2j + 1), (terms, len(ks)), read-only."""
    coef = _SERIES_C[:, None] / (np.array(ks) + 2.0 * _SERIES_J[:, None] + 1.0)
    coef.flags.writeable = False
    return coef


def _sine_power_sums(x: np.ndarray, ks: tuple[int, ...]) -> np.ndarray:
    """T_k(x) = sum_j binom(2j, j) 4^(-j) x^j / (k + 2j + 1), (len(ks), n),
    for x (n,) in [0, 1/4), so that S_k(phi0) = s^(k+1) T_k(s^2) with
    s = sin(phi0) <= 1/2: expanding (1 - s^2)^(-1/2) in
    S_k = integral_0^s s'^k (1 - s'^2)^(-1/2) ds'.  Every term is positive;
    one power table and one product sum them."""
    return _einsum("nj,jk->kn", x[:, None] ** _SERIES_J, _series_coef(ks))


def half_line_integrals(a: float, beta: np.ndarray, h: np.ndarray,
                        qs: tuple[int, ...]) -> list[np.ndarray]:
    """J_q = integral_0^inf (a t^2 - 2 beta t + gamma)^(-q/2) dt, for q in qs.

    h = gamma - beta^2 / a = D / a >= 0 is the minimum of the quadratic over
    the real line; it is passed in directly because forming it from gamma
    cancels near the singular sheet.  a may be an array that broadcasts
    against beta and h (one per kernel).  The qs ascend in steps of 2 from at
    least 2.  J_q = a^(-1/2) h^((1-q)/2) S_(q-2)(phi0), where
    S_k(phi0) = integral_0^phi0 sin^k and phi0 = atan2(sqrt(D), -beta).
    """
    minus_beta, ah = -beta, a * h
    a_gamma = ah + beta * beta
    x = ah / a_gamma                        # sin^2(phi0) = D / (a gamma)
    c = minus_beta / np.sqrt(a_gamma)       # cos(phi0)
    ks = [q - 2 for q in qs]
    kmin, kmax = min(ks), max(ks)
    # upward Wallis recursion S_k = ((k-1) S_(k-2) - sin^(k-1) cos) / k:
    # both terms are positive where beta >= 0 (phi0 >= pi/2); where beta < 0
    # each step loses about log2(1/sin^2(phi0)) bits, 2 bits a step just
    # above the switch at 1/4, about 7 bits by q = 8
    k = kmin % 2
    S_k = np.arctan2(np.sqrt(ah), minus_beta) if k == 0 else 1.0 - c
    s_pow = np.sqrt(x) if k == 0 else x     # sin^(k+1)(phi0)
    S = {k: S_k}
    while k < kmax:
        k += 2
        S[k] = S_k = ((k - 1) * S_k - s_pow * c) / k
        s_pow = s_pow * x if k < kmax else None
    # h = 0 on the sheet gives inf, which power_kernel_integral refuses
    scale = h ** (0.5 * (1 - qs[0])) / np.sqrt(a)
    out = [S[qs[0] - 2] * scale]
    for q in qs[1:]:
        scale = scale / h
        out.append(S[q - 2] * scale)
    # small phi0 with beta < 0: s^(q-1) h^((1-q)/2) = a^((q-1)/2) (a gamma)^((1-q)/2),
    # so J_q = a^(q/2-1) (a gamma)^((1-q)/2) T_(q-2)(x) holds no power of h,
    # and a row behind the apex at h = 0 reads a^(q/2-1) |beta|^(1-q) / (q-1)
    small = (beta < 0.0) & (x < _SERIES_X)
    if np.count_nonzero(small):
        T = _sine_power_sums(x[small], tuple(ks))
        a_s, ag = (a * np.ones_like(x))[small], a_gamma[small]
        scale = a_s ** (0.5 * qs[0] - 1.0) * ag ** (0.5 * (1 - qs[0]))
        for J, T_k in zip(out, T):
            J[small] = T_k * scale
            scale = scale * a_s / ag
    return out


class _Stack:
    """Fields with a leading kernel axis: ``frame[k]`` is kernel k's alone."""

    def __getitem__(self, k):
        return type(self)(*[v[k] for v in vars(self).values()])


@dataclass
class _Line(_Stack):
    """One cone column m per kernel, K of them: along m the quadratic is
    a t^2 - 2 beta t + gamma with a = m^T Q m and beta = m^T Q b, and
    h = gamma - beta^2 / a = |Z|^2 + E with Z = L b, so h is a Q-distance
    to the line along m, never a difference.  With Q = C C^T and
    u = C^T m / r11, r11 = |C^T m|: a = r11^2, Q m = r11 C u and
    L = (1 - u u^T) C^T, so L^T L = Q - Q m m^T Q / a."""

    a: np.ndarray         # (K, 1)
    Qm: np.ndarray        # (K, m)
    L: np.ndarray         # (K, m, m)

    @classmethod
    def build(cls, Ct: np.ndarray, M: np.ndarray) -> "_Line":
        Cm = (Ct @ M)[..., 0]
        r11 = np.sqrt(_einsum("km,km->k", Cm, Cm))[:, None]
        u = Cm / r11
        P = u @ Ct
        return cls(r11 * r11, r11 * P, Ct - u[:, :, None] * P[:, None, :])

    def integral(self, b: np.ndarray, E: np.ndarray, power: int, powers: int
                 ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray | None]:
        """Values (K, B) at ``powers`` powers from the power up by 2, squared
        sheet distances r*^2 (K, B) at the rows b (B, m), and for two or more
        powers the faces (K, 1, B): each line's apex value at the power."""
        beta = _einsum("km,bm->kb", self.Qm, b)
        Z = _einsum("kij,bj->kbi", self.L, b)
        h = _einsum("kbj,kbj->kb", Z, Z) + E
        # the sheet distance: to the line where the foot t = beta / a >= 0,
        # else to the apex, gamma = h + beta^2 / a
        r2 = h + np.minimum(beta, 0.0) ** 2 / self.a
        qs = tuple(range(power, power + 2 * powers, 2))
        faces = (h + beta * beta / self.a)[:, None] ** (-0.5 * power) if powers > 1 else None
        return half_line_integrals(self.a, beta, h, qs), r2, faces


# The far-edge gate.  An outer edge term H^-n (Theta - ahat_n) keeps the
# fraction r = (Theta - ahat_n) / Theta of its terms, whose rounding adds
# up to at most _EDGE_ROUNDING Theta (the worst over 1,500 random edges at
# n = 1..8, against 50-digit mpmath), so it errs by _EDGE_ROUNDING / r
# relative.  Held to _EDGE_BUDGET relative per edge term, the difference
# serves where r >= _EDGE_CANCEL = 2^-k, k = floor(log2(budget / rounding))
# = 4; elsewhere a Gauss-Legendre rule in the angle chi takes over.  Up to
# n = 8 those edges have the integrand's poles chi = +-i asinh(|l| / H)
# (and their images about pi) at least 0.224 Theta off the real axis; the
# rule asks for _EDGE_POLE Theta, outside its Bernstein ellipse of
# parameter 1.98, where 32 nodes err by rounding alone (within 1.6e-15 of
# mpmath, n <= 10); its nodes and weights on [0, 1]
_EDGE_ORDER = 32
_EDGE_NODES, _EDGE_WEIGHTS = panel_nodes(np.array([0.0, 1.0]), _EDGE_ORDER)
_EDGE_BUDGET = 1e-14
_EDGE_ROUNDING = 2.2 * 2.0 ** -52
_EDGE_CANCEL = 2.0 ** -math.floor(math.log2(_EDGE_BUDGET / _EDGE_ROUNDING))
_EDGE_POLE = 0.22


def _edges(e2: tuple, y: np.ndarray) -> np.ndarray:
    """(s0, l) (2, 2, ...) of the foot y (2, ...) per edge of the wedge
    between e1 = (1, 0) and e2 (axis 1): its position along the edge and
    its signed distance to the edge's line, positive on the wedge's side."""
    (cphi, sphi), (y0, y1) = e2, y
    edges = np.empty((2,) + y.shape)
    edges[:, 0] = y
    np.add(cphi * y0, sphi * y1, out=edges[0, 1])
    np.subtract(sphi * y0, cphi * y1, out=edges[1, 1])
    return edges


def wedge_integrals(phi: np.ndarray, s0: np.ndarray, ell: np.ndarray, inside: np.ndarray,
                    H2: np.ndarray, power: int, powers: int = 1) -> list[np.ndarray]:
    """W_q = integral over the wedge between e1 = (1, 0) and
    e2 = (cos phi, sin phi), 0 < phi < pi, of (H2 + |w - y|^2)^(-q/2) dA(w).

    The foot y enters through ``_edges``: s0 and l (2, ...), per element,
    and ``inside``, where both l >= 0; H2 (...) is the squared height,
    H2 > 0 wherever the foot lies in the closed wedge; phi broadcasts
    against H2 (one wedge per kernel, say).  Returns [W_p, W_(p+2), ...],
    ``powers`` of them, and for two or more J_p (2, ...) after them, the
    half-line integral of (H2 + |w - y|^2)^(-p/2) along each edge, the
    wedge's faces but for their columns' lengths.  p must be at least 3.
    A foot on the sheet (H2 = 0 in the wedge) reads inf, so callers
    evaluate it under np.errstate(divide="ignore", invalid="ignore").

    Every edge takes ``_edge_ahat``; an edge outside takes the complement
    H^-n (Theta - ahat_n), or ``_edge_rule``'s terms where the far-edge gate
    above sends it.
    """
    ns = tuple(range(power - 2, power - 2 + 2 * powers, 2))
    n_in = np.count_nonzero(inside)
    # H2 and H per edge (axis 0), so that no operation on the edges
    # broadcasts them: on small batches a broadcast costs more than the work
    H2_edge = np.empty(ell.shape)
    H2_edge[...] = H2
    H = np.sqrt(H2_edge)
    al = np.abs(ell)
    ahat, J = _edge_ahat(s0, al, H, H2_edge, ns)
    if n_in < inside.size:
        theta = np.arctan2(al, -s0)       # the angle edge k subtends at y
        gap = [theta - a for a in ahat]
        # outside the wedge: the Gauss rule where the last complement
        # cancels (never on an edge's line, l = 0) and the poles are far
        rule = (gap[-1] < _EDGE_CANCEL * theta) & (~inside if n_in else True)
        n_rule = np.count_nonzero(rule)
        if n_rule:
            rule &= al >= H * np.sinh(_EDGE_POLE * theta)
            n_rule = np.count_nonzero(rule)
        if n_rule:
            gauss = _edge_rule(theta[rule], al[rule], H2_edge[rule], ns)
        # a foot in the plane on an edge's line adds 0
        on_line = ell == 0.0 if np.count_nonzero(H) < H.size else None
        sign = -np.sign(ell)
    out = []
    for j, n in enumerate(ns):
        Hn = H ** -n
        if n_in:
            inner = Hn[0] * (phi + ahat[j][0] + ahat[j][1])
        if n_in < inside.size:
            edge = Hn * gap[j]
            if n_rule:
                edge[rule] = gauss[j]
            if on_line is not None:
                edge[on_line] = 0.0
            outer = np.add.reduce(sign * edge)
        value = inner if n_in == inside.size else (
            outer if not n_in else np.where(inside, inner, outer))
        out.append(value / n if n > 1 else value)
    return out + [J[(power - 2) // 2]] if powers > 1 else out   # J ascends from J_2 or J_3


def _edge_ahat(s0: np.ndarray, al: np.ndarray, H: np.ndarray, H2: np.ndarray,
               ns: tuple[int, ...]) -> list[np.ndarray]:
    """ahat_n = (p - 2) H^n A for each edge, n = p - 2 in ``ns``: the edge
    term of the form for a foot inside the wedge, scaled.

    Along the edge the quadratic is (t - s0)^2 + c^2, c^2 = H^2 + l^2, and
    ahat_(n+2) = ahat_n + |l| H^n J_(n+2), from ahat_0 = 0 or
    ahat_1 = 2 atan(r (1 - tau) / (1 + r^2 tau)), r = |l| / (c + H),
    tau = -s0 / (c + w), w^2 = c^2 + s0^2 (the half-angle substitution),
    J_q the half-line integral along the edge.  J_3 = (1 - cos psi) / c^2
    = 1 / (w (w - s0)), psi = atan2(c, -s0), is formed here, and so is
    J_2 = psi / c where no J follows; else ``half_line_integrals`` gives J_2
    on, forming psi once.  Returns the ahat_n and every J_q formed, ascending.
    """
    c2 = H2 + al * al
    if ns[0] % 2:
        c, w = np.sqrt(c2), np.sqrt(c2 + s0 * s0)
        # 1 / (w - s0) = (w + s0) / c^2 without cancellation
        inv = np.where(s0 < 0.0, 1.0 / (w - s0), (w + s0) / c2)
        r = al / (c + H)
        ahat, Hn = [2.0 * np.arctan(r * (c + c2 * inv) / (c + w - r * r * s0))], H
        J = [inv / w] if ns[-1] > 1 else []
        if ns[-1] > 3:
            J += half_line_integrals(1.0, s0, c2, tuple(range(5, ns[-1] + 1, 2)))
        steps = J
    else:
        J = ([np.arctan2(c := np.sqrt(c2), -s0) / c] if ns[-1] == 2 else
             half_line_integrals(1.0, s0, c2, tuple(range(2, ns[-1] + 1, 2))))
        ahat, Hn, steps = [al * J[0]], H2, J[1:]     # ahat_2 from ahat_0 = 0
    for i, J_q in enumerate(steps):
        Hn = Hn * H2 if i else Hn
        ahat.append(ahat[-1] + al * Hn * J_q)
    return ahat[-len(ns):], J


def _edge_rule(theta: np.ndarray, al: np.ndarray, H2: np.ndarray,
               ns: tuple[int, ...]) -> list[np.ndarray]:
    """(p - 2) B for each n = p - 2 in ``ns`` (ascending by 2), at the
    edges whose Theta, |l| and H^2 the 1-d arrays give: the integral over
    chi in [0, Theta] of root^n, root^2 = sin^2 chi / (H^2 sin^2 chi + l^2)."""
    s2 = np.sin(theta[:, None] * _EDGE_NODES) ** 2
    root2 = s2 / (H2[:, None] * s2 + (al * al)[:, None])
    # each root^n a power but the last of several, root^2 times the one below
    F = np.empty((len(ns),) + root2.shape)
    for f, n in zip(F, ns[:-1] or ns):
        f[...] = (np.sqrt(root2) ** n if n > 1 else np.sqrt(root2)) if n % 2 else root2 ** (n // 2)
    if len(ns) > 1:
        np.multiply(F[-2], root2, out=F[-1])
    return theta * _einsum("...n,n->...", F, _EDGE_WEIGHTS)


@dataclass
class _Wedge(_Stack):
    """The last two cone columns of each of K cone matrices as a planar
    wedge: the part that depends on the form and the cone alone.

    With Q = C C^T and U the orthonormal rows spanning C^T m1 and C^T m2,
    P = U C^T gives Q-orthonormal coordinates y = P x in the plane,
    oriented so that m1 runs along e1 = (1, 0) and m2 along
    e2 = (cos phi, sin phi); L = (1 - U^T U) C^T gives the transverse
    part, and |x|_Q^2 = |P x|^2 + |L x|^2.  The foot and transverse part
    of X0 are affine in the swept parameters tau': y0 = y - Py tau' and
    Z = z - Lz tau', with y = P b and z = L b for a row b.
    """

    cphi: np.ndarray      # (K, 1) cos phi
    sphi: np.ndarray      # (K, 1) sin phi
    phi: np.ndarray       # (K, 1) the opening angle
    jac: np.ndarray       # (K, 1) 1 / sqrt(det G): d tau_1 d tau_2 = jac dA
    inv_len: np.ndarray   # (K, 2, 1) 1 / |m2|_Q, 1 / |m1|_Q: faces 0, 1 run along them
    P: np.ndarray         # (K, 2, m)
    L: np.ndarray         # (K, m, m), or (K, 0, m) when m = 2
    Py: np.ndarray        # (K, 2, d-2), read by the sweep alone
    Lz: np.ndarray        # (K, m, d-2), read by the sweep alone

    @classmethod
    def build(cls, Ct: np.ndarray, M: np.ndarray) -> "_Wedge":
        CM = Ct @ M
        (K, m, d), m1, m2 = M.shape, CM[..., -2], CM[..., -1]
        # Gram-Schmidt, reorthogonalized once: r22, the part of m2 across
        # m1, keeps its relative accuracy for any angle between them
        r11 = np.sqrt(_einsum("km,km->k", m1, m1))
        u1 = m1 / r11[:, None]
        r12 = _einsum("km,km->k", u1, m2)
        v = m2 - r12[:, None] * u1
        fix = _einsum("km,km->k", u1, v)
        v -= fix[:, None] * u1
        r12 += fix
        r22 = np.sqrt(_einsum("km,km->k", v, v))
        U = np.empty((K, 2, m))
        U[:, 0] = u1
        np.divide(v, r22[:, None], out=U[:, 1])
        P = U @ Ct
        Py = U @ CM[..., :-2] if d > 2 else np.empty((K, 2, 0))
        # the transverse part, kept in the m coordinates of C^T
        if m > 2:
            L = Ct - U.swapaxes(-1, -2) @ P
            Lz = CM[..., :-2] - U.swapaxes(-1, -2) @ Py if d > 2 else np.empty((K, m, 0))
        else:
            L, Lz = np.zeros((K, 0, 2)), np.zeros((K, 0, d - 2))
        norm = np.hypot(r12, r22)[:, None]
        cphi, sphi = r12[:, None] / norm, r22[:, None] / norm
        return cls(cphi, sphi, np.arctan2(sphi, cphi), 1.0 / (r11 * r22)[:, None],
                   1.0 / np.concatenate([norm, r11[:, None]], axis=1)[..., None], P, L, Py, Lz)

    def integral(self, b: np.ndarray, E: np.ndarray, power: int, powers: int
                 ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray | None]:
        """The whole integral at d = 2 for every kernel of the stack and
        every row b (B, m) in one closed form, as ``_Line.integral`` gives
        it, but r*^2 is E (B,) at m = 2 when every foot lies in its wedge
        and the faces (K, 2, B) are its edges' half-line integrals over
        their columns' Q-lengths."""
        # the foot component-major (2, K, B), the transverse part (K, B, m'), none at m = 2
        y = _einsum("kcm,bm->ckb", self.P, b)
        z = _einsum("kim,bm->kbi", self.L, b) if self.L.shape[1] else None
        H2 = E if z is None else _einsum("kbi,kbi->kb", z, z) + E
        s0, ell = _edges((self.cphi, self.sphi), y)
        inside = (ell[0] >= 0.0) & (ell[1] >= 0.0)
        W = wedge_integrals(self.phi, s0, ell, inside, H2, power, powers)
        # the sheet distance: the height over a foot in the wedge, else over
        # the nearer edge ray, along it (s0 >= 0) or at the apex
        r2, n_in = H2, np.count_nonzero(inside)
        if n_in < inside.size:
            near = np.minimum.reduce(ell * ell + np.minimum(s0, 0.0) ** 2)
            r2 = H2 + (np.where(inside, 0.0, near) if n_in else near)
        faces = W.pop()[::-1].swapaxes(0, 1) * self.inv_len if powers > 1 else None
        return [w * self.jac for w in W], r2, faces


def cone_frame(Q: np.ndarray, M: np.ndarray) -> _Line | _Wedge | None:
    """What the closed forms take from the form Q and the cone matrices
    M (K, m, d) alone: None at d = 0, a ``_Line`` at d = 1, else a
    ``_Wedge``; a caller that keeps it for ``power_kernel_integral``
    builds it once per form."""
    d = M.shape[-1]
    return None if d == 0 else (_Line if d == 1 else _Wedge).build(np.linalg.cholesky(Q).T, M)


def _swept_breaks(wedge: _Wedge, y0: np.ndarray, z: np.ndarray, E0: float,
                  tau: np.ndarray, r_star: float, P: np.ndarray, attempt: int
                  ) -> tuple[float, list[np.ndarray]]:
    """The tail start R and one pass's panel breaks, graded around the
    first row's foot y0, transverse part z and closest sheet parameter
    ``tau`` (swept part): for r = |tau''|_1 on [0, R], then for each
    stick-breaking coordinate.

    Along a ray tau'' = r omega the squared distances from X0 to the plane,
    to both edge lines and to the apex are quadratics in r whose leading
    coefficient is at least lam_min(G) / k on the simplex, so their complex
    zeros have moduli below sqrt(k c / lam_min(G)), c the constant term;
    R keeps them at |s| >= _TAIL_START.
    """
    k = len(tau)
    width = max(r_star / math.sqrt(max(float(np.max(np.diag(P)[:k])), 1e-300)), 1e-8)
    Lz, Py = wedge.Lz, wedge.Py
    h0, Gz = float(z @ z) + E0, Lz.T @ Lz
    zeros = [(h0, Gz), (h0 + float(y0 @ y0), Gz + Py.T @ Py)]
    for n in np.array([[0.0, 1.0], [wedge.sphi[0], -wedge.cphi[0]]]):
        ny = n @ Py
        zeros.append((h0 + float(n @ y0) ** 2, Gz + np.outer(ny, ny)))
    rho = math.sqrt(max(c * k / float(np.linalg.eigvalsh(G)[0]) for c, G in zeros))
    radius = float(np.sum(tau))
    R = _TAIL_START * max(radius + width, rho)
    # r keeps the one-axis sweep's three fine levels; one suffices for a
    # stick-breaking coordinate u_i = tau_i / (tau_i + ... + tau_(k-1)),
    # whose first panels [c, c + w/2] see the peak's complex singularities
    # at c +- i w, w the peak width over the sum left (a move du_i shifts
    # tau'' by about that sum times du_i)
    breaks = [_axis_breakpoints(radius, width, R, 3, (), attempt)]
    rest = np.cumsum(tau[::-1])[::-1]
    for t, left in zip(tau[:-1].tolist(), rest[:-1].tolist()):
        c, w = (t / left, width / left) if left > 0.0 else (0.0, math.inf)
        breaks.append(_axis_breakpoints(c, w, 1.0, 1, _SIMPLEX_BREAKS, attempt))
    return R, breaks


def _swept_grid(R: float, breaks: list[np.ndarray], tail: np.ndarray,
                order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes tau'' = r omega (k, n) and weights (n,): Gauss panels in r on
    breaks[0] and the mapped panels r = R / s on the ``tail`` breaks in s,
    times omega from the stick-breaking coordinates on breaks[1:], with the
    Jacobian r^(k-1) prod (1 - u_i)^(k-1-i).  At k = 1 omega is 1."""
    r, wr = panel_nodes(breaks[0], order)
    s, ws = panel_nodes(tail, order)
    r = np.concatenate([r, R / s])
    wr = np.concatenate([wr, ws * R / (s * s)])
    omega, wo, left = [], np.ones(1), np.ones(1)
    for br in breaks[1:]:
        u, wu = panel_nodes(br, order)
        omega = [np.repeat(c, len(u)) for c in omega] + [np.outer(left, u).ravel()]
        wo = np.outer(wo * left, wu).ravel()
        left = np.outer(left, 1.0 - u).ravel()
    omega = np.array(omega + [left])
    k = len(omega)
    return ((omega[:, None, :] * r[None, :, None]).reshape(k, -1),
            np.outer(wr * r ** (k - 1), wo).ravel())


def _sweep(wedge: _Wedge, y: np.ndarray, z: np.ndarray, E: np.ndarray,
           nodes: np.ndarray, weights: np.ndarray, power: int, powers: int,
           chunk: int) -> np.ndarray:
    """One sweep of one kernel's ``wedge`` over the first d - 2 parameters
    at the ``nodes`` (d - 2, n), the last two exact, for the rows whose
    feet and transverse parts are y (2, B) and z (m', B): values
    (powers, B) at the power, power + 2, ..."""
    e2 = (wedge.cphi, wedge.sphi)
    val = np.zeros((powers, E.shape[0]))
    for start in range(0, len(weights), chunk):
        tau = nodes[:, start:start + chunk]
        wts = weights[start:start + chunk]
        # component-major (k, B, n): long inner loops for numpy
        y0 = y[:, :, None] - (wedge.Py @ tau)[:, None, :]
        Z = z[:, :, None] - (wedge.Lz @ tau)[:, None, :]
        H2 = _einsum("kbn,kbn->bn", Z, Z) + E[:, None]
        s0, ell = _edges(e2, y0)
        with np.errstate(divide="ignore", invalid="ignore"):
            W = wedge_integrals(wedge.phi, s0, ell, (ell[0] >= 0.0) & (ell[1] >= 0.0), H2,
                                power, powers)
        for v, w in zip(val, W):
            v += w @ wts
    return val * wedge.jac


def _sweep_group(wedge: _Wedge, P: np.ndarray, b: np.ndarray, E: np.ndarray,
                 sheet: tuple[np.ndarray, float], power: int, powers: int,
                 tol: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, int]:
    """One kernel's values (powers, B) at the power, power + 2, ..., their
    errors and its grid nodes at the rows b (B, m) of one group, swept on its
    first row's grid (``sheet`` that row's (tau*, r*), P = M^T Q M) until
    the raw (abs, rel) ``tol`` holds at every power; a QuadratureError
    names the power and the group's row (0 for a grid over budget)."""
    tau_star, r_star = sheet
    B = len(b)
    y0, z = wedge.P @ b.T, wedge.L @ b.T
    # about 2^14 elements per temporary array, so a chunk stays in cache
    chunk = max(1 << 10, (1 << 14) // B)
    evals = 0
    for attempt in range(_REFINE_PASSES + 1):
        R, breaks = _swept_breaks(wedge, y0[:, 0], z[:, 0], float(E[0]),
                                  tau_star[:-2], r_star, P, attempt)
        tail = np.linspace(0.0, 1.0, 3 if attempt else 2)
        panels = [len(breaks[0]) + len(tail) - 2] + [len(br) - 1 for br in breaks[1:]]
        n_hi = math.prod(n * _ORDER for n in panels)
        n_lo = math.prod(n * _ORDER_LOW for n in panels)
        if n_hi + n_lo > _MAX_EVALS:
            raise QuadratureError(
                f"panel grid needs {n_hi + n_lo} evaluations per point, "
                f"budget is {_MAX_EVALS}", row=0)
        v_hi = _sweep(wedge, y0, z, E, *_swept_grid(R, breaks, tail, _ORDER),
                      power, powers, chunk)
        v_lo = _sweep(wedge, y0, z, E, *_swept_grid(R, breaks, tail, _ORDER_LOW),
                      power, powers, chunk)
        evals += (n_hi + n_lo) * B
        err = np.abs(v_hi - v_lo)
        bound = np.maximum(tol[0], tol[1] * np.abs(v_hi))
        if np.all(err <= bound):
            return v_hi, err, evals
    j, row = divmod(int(np.argmax(err / bound)), B)
    shape = " x ".join(str(n * _ORDER) for n in panels)
    raise QuadratureError(
        f"no convergence after {_REFINE_PASSES + 1} passes: r* = {r_star:.3e}, grid "
        f"{shape}, error {err[j, row]:.3e} against tolerance {bound[j, row]:.3e} "
        f"at power {power + 2 * j}", row=row)


def power_kernel_integral(Q: np.ndarray, c_eta: float, b: np.ndarray,
                          eta: np.ndarray, M: np.ndarray, power: int,
                          spec: QuadratureSpec, powers: int = 1,
                          prefactor: float = 1.0, floor: float = 0.0,
                          frame: _Line | _Wedge | None = None) -> QuadResult:
    """Evaluate the orthant power integrals of a kernel family at a batch.

    b is (B, m) and eta (B,); M (K, m, d) stacks the cone matrices of K
    kernels that share Q, c_eta and the power.  Values and errors are
    (K, B) at the power, and ``powers`` of two or more adds power + 2, ...
    (``QuadResult.higher``), from the same pass and to the same tolerance.
    At d <= 2 every (kernel, row) pair is a closed form, all in one pass,
    and with two or more powers it returns each cone's faces at the power,
    ``QuadResult.faces`` (K, d, B): a wedge's edges' half-line integrals,
    which its edge terms form anyway, and a line's apex value; at d >= 3 each
    group of a kernel's rows (``_grid_groups``) is swept on its first row's
    grid, so rows may lie at any distance from each other.  ``frame`` is
    the ``cone_frame`` of M, for a caller that keeps it; ``prefactor``
    only converts the spec tolerances into raw-integral units, and the
    returned values are raw.  A batch of no rows (B = 0) returns empty
    arrays, 0 evals and r_star inf.

    Every refusal carries its pair's ``kernel`` and ``row``.
    SingularityProximity: the nearest pair (ties go to the first kernel,
    then row), if its sheet distance is below ``floor`` or 0; at d <= 2
    each closed form reads every pair's distance from its own coordinates,
    and a pair whose distance is not a number, or whose value or face is
    not finite, is refused as well; at d >= 3 the refusal comes before
    anything is evaluated.
    QuadratureError: a grid over the node budget, or a sweep that misses
    its tolerance at any of its powers after the refinement passes.
    """
    B, m = b.shape
    K, _, d = M.shape
    if B == 0:
        empty = np.zeros((K, 0))
        faces = np.zeros((K, d, 0)) if powers > 1 and d <= 2 else None
        return QuadResult(empty, empty, [empty] * (powers - 1), faces, 0, True, math.inf)
    eta = np.ascontiguousarray(eta, dtype=complex)
    E = c_eta * (eta.real * eta.real + eta.imag * eta.imag)
    if frame is None:
        frame = cone_frame(Q, M)
    if d <= 2:
        # every (kernel, row) pair is a closed form; one on the sheet reads inf
        with np.errstate(divide="ignore", invalid="ignore"):
            if d == 0:
                bQ = _einsum("bm,mk->bk", b, Q)
                r2 = _einsum("bk,bk->b", bQ, b) + E
                vals = [np.repeat(r2[None] ** (-0.5 * power - j), K, axis=0)
                        for j in range(powers)]
                faces = np.empty((K, 0, B)) if powers > 1 else None
            else:
                vals, r2, faces = frame.integral(b, E, power, powers)
        val = vals[0]
        r = r_star = math.sqrt(float(r2.min()))
        if r >= floor and r > 0.0:
            if _finite(val) and (faces is None or _finite(faces)):
                return QuadResult(val, np.zeros((K, B)), vals[1:], faces, K * B, True, r_star)
            # off the sheet every closed form and face is finite; should one
            # not be, the first such pair is refused by name
            finite = np.isfinite(val) & (True if faces is None else np.isfinite(faces).all(axis=1))
            row, k = divmod(int(np.argmax(~finite.T)), K)
            what = "face" if np.isfinite(val[k, row]) else "value"
            raise SingularityProximity(f"row {row} gives a {what} that is not finite", k, row)
        k, row = divmod(int(r2.argmin()), B)
        # a non-finite coordinate leaves no distance for the refusals below
        if math.isnan(r):
            raise SingularityProximity(f"row {row} has a sheet distance that is not a number",
                                       k, row)
    else:
        # the nearest (kernel, row) pair's sheet distance, exact below the floor
        nearest, groups, r_star = (math.inf, 0, 0), [], math.inf
        for k in range(K):
            kernel_groups, (r_k, row), solved = _grid_groups(Q, c_eta, M[k], b, eta, E, floor)
            groups += [(k, rows, sheet) for rows, sheet in kernel_groups]
            nearest, r_star = min(nearest, (r_k, k, row)), min(r_star, solved)
        r, k, row = nearest
    if r < floor:
        raise SingularityProximity(f"distance {r:.3e} from the singular stratum is below "
                                   f"the resolution floor {floor:.3e}", k, row)
    if r <= 0.0:
        raise SingularityProximity(f"row {row} lies on the kernel's singular sheet", k, row)

    tol = (spec.abs_tol / max(prefactor, 1e-300), _REL_TOL)
    vals, errs = np.empty((powers, K, B)), np.empty((K, B))
    evals = 0
    for k, rows, sheet in groups:
        try:
            v, e, n = _sweep_group(frame[k], M[k].T @ Q @ M[k], b[rows], E[rows], sheet,
                                   power, powers, tol)
        except QuadratureError as exc:
            exc.kernel, exc.row = k, int(rows[exc.row])
            raise
        vals[:, k, rows], errs[k, rows] = v, e[0]
        evals += n
    return QuadResult(vals[0], errs, list(vals[1:]), None, evals, True, r_star)
