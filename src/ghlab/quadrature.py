"""Deterministic quadrature engine for the singular orthant integrals.

Every kernel in this package is an integral over an orthant of a power of
an anisotropic distance,

    integral over tau in R_+^d of ((b - M tau)^T Q (b - M tau) + E)^(-p/2),

optionally together with its derivatives with respect to b and the two real
components hidden in E = c |eta|^2.  The integrand is smooth but sharply
peaked where the affine sheet {b - M tau} passes closest to the origin, and
it decays like |tau|^(-p) with p > d, so the mass beyond radius T is
~ T^(d-p).

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
W: every term is positive.  Per edge, with c^2 = H^2 + l^2, kappa = H / c
and n = p - 2, the scaled term (p - 2) H^n A_k grows from n to n + 2 by
(|l| / c) kappa^n times the Wallis integral of sin^n from 0 to
atan2(c, -s0), s0 the foot's position along the edge, starting from 0
(n even) or an arctangent (n odd).  Outside W the terms of size H^(2-p)
add up to the winding angle 0, so they are dropped and
int_W = -sum_k sign(l_k) B_k with

    B_k = integral_0^Theta_k (H^2 + l_k^2 / sin^2 chi)^((2-p)/2) d chi / (p - 2)
        = Theta_k H^(2-p) / (p - 2) - A_k.

The difference is used only where H > |l_k|, so it loses a few bits at
most; elsewhere a Gauss rule in chi evaluates B_k to rounding, because the
integrand's poles chi = +-i asinh(|l_k| / H) then lie outside the rule's
Bernstein ellipse.  The worst conditioning left is about 1/phi, for thin
wedges seen from the side.

The gradient needs no new integral.  Along the plane, by the divergence
theorem in y, it is minus the sum over the edges of the outward normal
times the half-line integral J_p along the edge; across the plane and in
eta it is a multiple of the wedge integral at p + 2.  For one cone column
(d = 1) the integrand along m is (a t^2 - 2 beta t + gamma)^(-p/2), and
``half_line_integrals`` evaluates J_p = a^((p-2)/2) D^((1-p)/2) times an
angle integral of cos^(p-2) without cancellation (an all-positive Wallis
recursion where beta >= 0, the incomplete beta function where beta < 0
and the angle is small), D formed as a times a Q-distance to the line.

So at d <= 2 nothing is swept and every row is a closed form with error
0.  The engine takes rows b (B, m), eta (B,) and a stack of cone matrices
M (K, m, d) of kernels that share Q, c_eta and the power; the form's part
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
QuadratureError; no unconverged value is returned.

A scrambled-Sobol quasi-Monte-Carlo evaluator of the same integral is
provided as an independent oracle; it is never the primary path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import special
from scipy.linalg import lapack

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "QuadratureError",
    "SingularityProximity",
    "closed_sheet_distances",
    "cone_frame",
    "half_line_integrals",
    "wedge_integrals",
    "nonneg_argmin",
    "nonneg_argmin_rows",
    "power_kernel_integral",
    "qmc_power_kernel_integral",
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
    max(abs_tol, rel_tol |v|) in the final (prefactor-scaled) kernel value
    v.  The error is the two-order Gauss difference on the radial grid of
    the swept d - 2 parameters, whose mapped tail panel reaches infinity,
    so nothing is truncated.  The last two cone parameters are integrated
    exactly, so at d <= 2 the error is 0.  The Gauss orders, the node
    budget and the refinement passes are the fixed module constants
    ``_ORDER``, ``_ORDER_LOW``, ``_MAX_EVALS`` and ``_REFINE_PASSES``.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class QuadResult:
    value: np.ndarray          # (K, B) raw integral values, no prefactor
    error: np.ndarray          # (K, B) two-order differences, raw units
    gradient: np.ndarray | None  # (K, B, m + 2) d/d(b, Re eta, Im eta), raw
    evals: int                 # swept grid nodes times batch rows (kernel
                               # rows alone when nothing is swept)
    converged: bool            # always True: a miss raises QuadratureError
                               # (perfbench/tracing.py reads it)
    r_star: float              # the smallest sheet distance the call solved;
                               # inf at d <= 2 with no floor, which solves none


@lru_cache(maxsize=32)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
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


def nonneg_argmin_rows(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The minimizers of tau^T P tau - 2 q_b^T tau over tau >= 0, one per
    row q_b of q (..., B, d), for d <= 2 in closed form; P is (..., d, d),
    one form per leading index (a kernel), and so is the result.

    At d = 1 tau = max(q / P, 0).  At d = 2 it is the free minimizer
    P^-1 q_b when that lies in the orthant, else the better of the
    minimizers along the two edges, tau_k = max(q_k / P_kk, 0), whose
    minimum is -q_k tau_k.
    """
    if P.shape[-1] == 1:
        return np.maximum(q / P, 0.0)
    # P^-1 = [[p11, -p01], [-p01, p00]] / det
    det = P[..., :1, :1] * P[..., 1:, 1:] - P[..., :1, 1:] * P[..., :1, 1:]
    tau = q @ (P[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])) / det
    edge = (tau < 0.0).any(axis=-1)
    if edge.any():
        e = np.maximum(q / P.diagonal(0, -2, -1)[..., None, :], 0.0)[edge]
        gain = q[edge] * e
        first = gain[:, 0] >= gain[:, 1]
        e[first, 1] = 0.0
        e[~first, 0] = 0.0
        tau[edge] = e
    return tau


def nonneg_argmin(P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize tau^T P tau - 2 q^T tau over tau >= 0, exactly, for SPD P,
    by enumerating the 2^d active sets and checking the KKT sign
    conditions (d is at most 4 or 5 here; at d <= 2
    ``nonneg_argmin_rows`` is the closed form).  Returns (tau*, minimum
    value).
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
    cone matrix M (m, d), by ``nonneg_argmin``; ``closed_sheet_distances``
    is the batched closed form for d <= 2."""
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


def closed_sheet_distances(Q: np.ndarray, M: np.ndarray, b: np.ndarray,
                           E: np.ndarray) -> np.ndarray:
    """Every row's sheet distance r* (..., B) when the sheet has at most two
    cone columns, for one cone matrix M (m, d) or one per kernel (K, m, d),
    from the closest sheet parameter tau* that ``nonneg_argmin_rows``
    gives in closed form."""
    if M.shape[-1]:
        QM = Q @ M
        Mt = M.swapaxes(-1, -2)
        b = b - nonneg_argmin_rows(Mt @ QM, b @ QM) @ Mt
    else:
        b = np.broadcast_to(b, M.shape[:-2] + b.shape)
    return np.sqrt(((b @ Q) * b).sum(axis=-1) + E)


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

# the two Gauss orders whose difference estimates the error of a swept
# integral, the grid nodes per batch row that one pass may take, and the
# extra, finer passes tried before QuadratureError is raised
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
# digits to cancellation; the incomplete beta function takes over there
_BETAINC_X = 0.25


def half_line_integrals(a: float, beta: np.ndarray, h: np.ndarray,
                        qs: tuple[int, ...]) -> list[np.ndarray]:
    """J_q = integral_0^inf (a t^2 - 2 beta t + gamma)^(-q/2) dt, for q in qs.

    h = gamma - beta^2 / a = D / a > 0 is the minimum of the quadratic over
    the real line; it is passed in directly because forming it from gamma
    cancels near the singular sheet.  a may be an array that broadcasts
    against beta and h (one per kernel).  The qs ascend in steps of 2 from at
    least 2.  J_q = a^(-1/2) h^((1-q)/2) S_(q-2)(phi0), where
    S_k(phi0) = integral_0^phi0 sin^k and phi0 = atan2(sqrt(D), -beta).
    """
    minus_beta = -beta
    a_gamma = a * h + beta * beta
    x = a * h / a_gamma                     # sin^2(phi0) = D / (a gamma)
    c = minus_beta / np.sqrt(a_gamma)       # cos(phi0)
    ks = [q - 2 for q in qs]
    kmin, kmax = min(ks), max(ks)
    # upward Wallis recursion S_k = ((k-1) S_(k-2) - sin^(k-1) cos) / k:
    # both terms are positive where beta >= 0 (phi0 >= pi/2), and above
    # sin^2(phi0) = 1/4 the cancellation costs a few bits at most
    k = kmin % 2
    S_k = np.arctan2(np.sqrt(a * h), minus_beta) if k == 0 else 1.0 - c
    s_pow = np.sqrt(x) if k == 0 else x     # sin^(k+1)(phi0)
    S = {k: S_k}
    while k < kmax:
        k += 2
        S_k = ((k - 1) * S_k - s_pow * c) / k
        s_pow = s_pow * x
        S[k] = S_k
    # small phi0 with beta < 0: substituting x = sin^2 gives
    # S_k = B((k+1)/2, 1/2) I_x((k+1)/2, 1/2) / 2 for phi0 <= pi/2
    small = (beta < 0.0) & (x < _BETAINC_X)
    if np.any(small):
        xs = x[small]
        for k in {kmin, kmax}:
            ak = 0.5 * (k + 1)
            half_beta = 0.5 * math.gamma(ak) * math.sqrt(math.pi) / math.gamma(ak + 0.5)
            S[k][small] = half_beta * special.betainc(ak, 0.5, xs)
    # h = 0 on the sheet gives inf, which power_kernel_integral refuses
    with np.errstate(divide="ignore"):
        scale = h ** (0.5 * (1 - qs[0])) / np.sqrt(a)
    out = []
    for q in qs:
        out.append(S[q - 2] * scale)
        scale = scale / h
    return out


class _Stack:
    """Fields with a leading kernel axis: ``frame[k]`` is kernel k's alone."""

    def __getitem__(self, k):
        return type(self)(*(v[k] for v in vars(self).values()))


@dataclass
class _Line(_Stack):
    """One cone column m per kernel, K of them: along m the quadratic is
    a t^2 - 2 beta t + gamma with a = m^T Q m and beta = m^T Q b, and
    h = gamma - beta^2 / a = |Z|^2 + E with Z = L b, L^T L = Q - Q m m^T Q / a,
    so h is a Q-distance to the line along m, never a difference."""

    a: np.ndarray         # (K, 1)
    Qm: np.ndarray        # (K, m)
    L: np.ndarray         # (K, m-1, m)

    @classmethod
    def build(cls, Q: np.ndarray, M: np.ndarray) -> "_Line":
        Qm = (Q @ M)[..., 0]
        a = np.einsum("km,km->k", M[..., 0], Qm)[:, None]
        # the projected form has one null direction (m itself), sorted first
        lam, vec = np.linalg.eigh(Q - Qm[:, :, None] * Qm[:, None, :] / a[:, :, None])
        L = vec[..., 1:].swapaxes(-1, -2) * np.sqrt(np.maximum(lam[:, 1:], 0.0))[..., None]
        return cls(a, Qm, L)

    def integral(self, b: np.ndarray, E: np.ndarray, power: int,
                 want_gradient: bool, ceta_xy: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """Values (K, B) and gradient rows (K, B, m + 2) at the rows b (B, m)."""
        beta = self.Qm @ b.T
        Z = b @ self.L.swapaxes(-1, -2)
        h = np.einsum("kbj,kbj->kb", Z, Z) + E
        qs = (power, power + 2) if want_gradient else (power,)
        J = half_line_integrals(self.a, beta, h, qs)
        if not want_gradient:
            return J[0], None
        # d/db = -p [J_(p+2) Q Y - Q m (beta J_(p+2) / a - K_(p+2))] with
        # Q Y = L^T Z the part of Q b across m; the first moment K obeys
        # a K - beta J = gamma^(-p/2) / p
        m = self.Qm.shape[-1]
        grad = np.empty(h.shape + (m + 2,))
        bound = (h + beta * beta / self.a) ** (-0.5 * power)
        grad[..., :m] = ((-power * J[1][..., None] * Z) @ self.L
                         + bound[..., None] * (self.Qm / self.a)[:, None, :])
        grad[..., m:] = -power * ceta_xy * J[1][..., None]
        return J[0], grad


# the far-edge rule: Gauss-Legendre in the angle chi, used where the
# integrand's poles chi = +-i asinh(|l| / H) (and their images about pi)
# lie at least _EDGE_POLE times the edge's angle Theta off the real axis.
# They then sit outside the rule's Bernstein ellipse of parameter 2.18, so
# 32 nodes err by less than 2.18^-64 relative.  Nearer poles mean H > |l|,
# where the difference form loses a few bits at most
_EDGE_ORDER = 32
_EDGE_POLE = 0.28


def wedge_integrals(e2: tuple, y: np.ndarray, H2: np.ndarray,
                    power: int, want_gradient: bool = False
                    ) -> list[np.ndarray]:
    """W_q = integral over the wedge between e1 = (1, 0) and
    e2 = (cos phi, sin phi), 0 < phi < pi, of (H2 + |w - y|^2)^(-q/2) dA(w).

    y is (2, ...) and H2 (...): per element the foot and the squared
    height, H2 > 0 wherever the foot lies in the closed wedge; cos phi and
    sin phi broadcast against H2 (one wedge per kernel, say).  Returns
    [W_p], or with ``want_gradient`` [W_p, W_(p+2), dW_p/dy], the last one
    (2, ...); dW_p/dH2 = -p W_(p+2) / 2.  p must be at least 3.
    """
    cphi, sphi = e2
    # per edge k (first axis): the foot's position s0 along it and its
    # signed distance l to the edge's line, positive on the wedge's side
    s0 = np.concatenate([y[None, 0], (cphi * y[0] + sphi * y[1])[None]])
    ell = np.concatenate([y[None, 1], (sphi * y[0] - cphi * y[1])[None]])
    ns = (power - 2, power) if want_gradient else (power - 2,)
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = (ell[0] >= 0.0) & (ell[1] >= 0.0)
        n_in = np.count_nonzero(inside)
        H = np.sqrt(H2)
        al = np.abs(ell)
        theta = np.arctan2(al, -s0)       # the angle edge k subtends at y
        n_rule = 0
        if n_in < inside.size:
            # outside the wedge: the Gauss rule where the poles are far enough
            rule = ~inside & (al >= H * np.sinh(_EDGE_POLE * theta)) & (ell != 0.0)
            n_rule = np.count_nonzero(rule)
            if n_rule:
                gauss = _edge_rule(theta, al, H2, rule if n_rule < rule.size else None,
                                   ns, want_gradient)
        if n_rule < ell.size:
            ahat, S = _edge_ahat(s0, al, H, H2, ns)
        if n_in < inside.size:
            minus_sign = -np.sign(ell)
        out = []
        for j, n in enumerate(ns):
            if n_rule < ell.size:
                Hn = H ** -n
            if n_in:
                inner = Hn * (np.arctan2(sphi, cphi) + ahat[j][0] + ahat[j][1])
            if n_in < inside.size:
                if n_rule < ell.size:
                    edge = Hn * (theta - ahat[j])
                    if n_rule:
                        edge[rule] = gauss[j]
                    if not H.all():
                        # a foot in the plane on an edge's line adds 0
                        edge[ell == 0.0] = 0.0
                else:
                    edge = gauss[j]
                outer = (minus_sign * edge).sum(axis=0)
            value = inner if n_in == inside.size else (
                outer if not n_in else np.where(inside, inner, outer))
            out.append(value / n)
        if want_gradient:
            if n_rule < ell.size:
                # J_p = c^(1-p) S_(p-2)(psi), as in half_line_integrals;
                # where psi is small the Wallis steps lose digits, and that
                # routine's betainc branch takes over
                c2 = H2 + ell * ell
                J = c2 ** (-0.5 * (ns[0] + 1)) * S
                small = (s0 < 0.0) & (c2 < _BETAINC_X * (c2 + s0 * s0))
                if n_rule:
                    small &= ~rule
                    J[rule] = gauss[-1]
                if small.any():
                    J[small] = half_line_integrals(1.0, s0[small], c2[small], (power,))[0]
            else:
                J = gauss[-1]
            # minus the outward normals (0, -1) and (-sin phi, cos phi)
            # times the half-line integrals along the edges
            out.append(np.concatenate([(sphi * J[1])[None], (J[0] - cphi * J[1])[None]]))
    return out


def _edge_ahat(s0: np.ndarray, al: np.ndarray, H: np.ndarray, H2: np.ndarray,
               ns: tuple[int, ...]) -> tuple[list[np.ndarray], np.ndarray]:
    """ahat_n = (p - 2) H^n A for each edge, n = p - 2 in ``ns``: the edge
    term of the form for a foot inside the wedge, scaled; and S_(ns[0]).

    With c^2 = H^2 + l^2, kappa = H / c and psi = atan2(c, -s0),
    ahat_(n+2) = ahat_n + (|l| / c) kappa^n S_n(psi), S_n the integral of
    sin^n from 0 to psi (upward Wallis steps), from ahat_0 = 0 or
    ahat_1 = 2 atan(r (1 - tau) / (1 + r^2 tau)), r = |l| / (c + H),
    tau = -s0 / (c + w), w^2 = c^2 + s0^2 (the half-angle substitution).
    """
    c2 = H2 + al * al
    c = np.sqrt(c2)
    w = np.sqrt(c2 + s0 * s0)
    kap, lp = H / c, al / c
    sin2_psi, cos_psi = c2 / (w * w), -s0 / w
    n = ns[0] % 2
    if n:
        # w + s0 without cancellation
        w_lo = np.where(s0 < 0.0, c2 / (w - s0), w + s0)
        r = al / (c + H)
        cw = c + w
        ahat = 2.0 * np.arctan(r * (c + w_lo) / (cw - r * r * s0))
        S = w_lo / w                                  # 1 - cos psi
        s_pow = sin2_psi                              # sin^(n+1) psi
        kap_pow = kap
    else:
        ahat = np.zeros_like(c)
        S = np.arctan2(c, -s0)
        s_pow = np.sqrt(sin2_psi)
        kap_pow = 1.0
    kap2 = kap * kap
    out, S_first = [], None
    while True:
        if n in ns:
            out.append(ahat)
            if S_first is None:
                S_first = S
            if n == ns[-1]:
                return out, S_first
        ahat = ahat + lp * kap_pow * S
        # upward Wallis step
        S = ((n + 1) * S - s_pow * cos_psi) / (n + 2)
        s_pow = s_pow * sin2_psi
        kap_pow = kap_pow * kap2
        n += 2


def _edge_rule(theta: np.ndarray, al: np.ndarray, H2: np.ndarray,
               rule: np.ndarray | None, ns: tuple[int, ...],
               want_gradient: bool) -> list[np.ndarray]:
    """On the edges in ``rule`` (all of them for None): (p - 2) B, the
    integral over chi in [0, Theta] of root^n,
    root^2 = sin^2 chi / (H^2 sin^2 chi + l^2), for each n = p - 2 in
    ``ns``; with ``want_gradient`` also the half-line integral J_p, the
    integral of |l| root^n / (H^2 sin^2 chi + l^2)."""
    t, wt = _unit_rule(_EDGE_ORDER)
    h2 = H2[..., None]
    if rule is not None:
        theta, al, h2 = theta[rule], al[rule], (H2 + 0.0 * al)[rule][:, None]
    s2 = np.sin(theta[..., None] * t) ** 2
    den = h2 * s2 + (al * al)[..., None]
    root2 = s2 / den
    n = ns[0]
    rn = (np.sqrt(root2) ** n if n > 1 else np.sqrt(root2)) if n % 2 else root2 ** (n // 2)
    out = [theta * (rn @ wt)]
    if len(ns) > 1:
        out.append(theta * ((rn * root2) @ wt))
    if want_gradient:
        out.append(theta * al * ((rn / den) @ wt))
    return out


@lru_cache(maxsize=4)
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = gauss_rule(order)
    t, wt = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


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

    cphi: np.ndarray      # (K,) cos phi
    sphi: np.ndarray      # (K,) sin phi
    jac: np.ndarray       # (K,) 1 / sqrt(det G): d tau_1 d tau_2 = jac dA
    P: np.ndarray         # (K, 2, m)
    L: np.ndarray         # (K, m, m), or (K, 0, m) when m = 2
    Py: np.ndarray        # (K, 2, d-2)
    Lz: np.ndarray        # (K, m, d-2)

    @classmethod
    def build(cls, Q: np.ndarray, M: np.ndarray) -> "_Wedge":
        Ct, info = lapack.dpotrf(Q)       # upper: Q = Ct^T Ct, once for all K
        if info:
            raise np.linalg.LinAlgError("the form Q is not positive definite")
        CM = Ct @ M
        m1, m2 = CM[..., -2], CM[..., -1]
        # Gram-Schmidt, reorthogonalized once: r22, the part of m2 across
        # m1, keeps its relative accuracy for any angle between them
        r11 = np.sqrt(np.einsum("km,km->k", m1, m1))
        u1 = m1 / r11[:, None]
        r12 = np.einsum("km,km->k", u1, m2)
        v = m2 - r12[:, None] * u1
        fix = np.einsum("km,km->k", u1, v)
        v -= fix[:, None] * u1
        r12 += fix
        r22 = np.sqrt(np.einsum("km,km->k", v, v))
        U = np.stack([u1, v / r22[:, None]], axis=1)
        P = U @ Ct
        Py = U @ CM[..., :-2]
        # the transverse part, kept in the m coordinates of C^T
        if len(Ct) > 2:
            L = Ct - U.swapaxes(-1, -2) @ P
            Lz = CM[..., :-2] - U.swapaxes(-1, -2) @ Py
        else:
            L, Lz = np.zeros((len(M), 0, 2)), np.zeros((len(M), 0, M.shape[-1] - 2))
        norm = np.hypot(r12, r22)
        return cls(r12 / norm, r22 / norm, 1.0 / (r11 * r22), P, L, Py, Lz)

    def integral(self, b: np.ndarray, E: np.ndarray, power: int,
                 want_gradient: bool, ceta_xy: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray | None]:
        """The whole integral at d = 2 for every kernel of the stack and
        every row b (B, m) in one closed form: values (K, B), gradients
        (K, B, m + 2)."""
        # component-major (2, K, B) and (m', K, B)
        y, z = (self.P @ b.T).swapaxes(0, 1), (self.L @ b.T).swapaxes(0, 1)
        W = wedge_integrals((self.cphi[:, None], self.sphi[:, None]), y,
                            np.einsum("j...,j...->...", z, z) + E, power, want_gradient)
        jac = self.jac[:, None]
        if not want_gradient:
            return W[0] * jac, None
        # along the plane through dW/dy, across it and in eta through
        # dW/dH2 = -p W_(p+2) / 2
        m = self.P.shape[-1]
        grad = np.empty(W[0].shape + (m + 2,))
        Wp = (-power * jac) * W[1]
        grad[..., :m] = (jac[..., None] * W[2].transpose(1, 2, 0) @ self.P
                         + (Wp * z).transpose(1, 2, 0) @ self.L)
        grad[..., m:] = Wp[..., None] * ceta_xy
        return W[0] * jac, grad


def cone_frame(Q: np.ndarray, M: np.ndarray) -> _Line | _Wedge | None:
    """What the closed forms take from the form Q and the cone matrices
    M (K, m, d) alone: None at d = 0, a ``_Line`` at d = 1, else a
    ``_Wedge``; a caller that keeps it for ``power_kernel_integral``
    builds it once per form."""
    d = M.shape[-1]
    return None if d == 0 else _Line.build(Q, M) if d == 1 else _Wedge.build(Q, M)


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
    for n in np.array([[0.0, 1.0], [wedge.sphi, -wedge.cphi]]):
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
           nodes: np.ndarray, weights: np.ndarray, power: int,
           want_gradient: bool, ceta_xy: np.ndarray, chunk: int
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """One sweep of one kernel's ``wedge`` over the first d - 2 parameters
    at the ``nodes`` (d - 2, n), the last two exact, for the rows whose
    feet and transverse parts are y (2, B) and z (m', B)."""
    B, m = E.shape[0], wedge.P.shape[1]
    val = np.zeros(B)
    grad = np.zeros((B, m + 2)) if want_gradient else None
    for start in range(0, len(weights), chunk):
        tau = nodes[:, start:start + chunk]
        wts = weights[start:start + chunk]
        # component-major (k, B, n): long inner loops for numpy
        y0 = y[:, :, None] - (wedge.Py @ tau)[:, None, :]
        Z = z[:, :, None] - (wedge.Lz @ tau)[:, None, :]
        H2 = np.einsum("kbn,kbn->bn", Z, Z) + E[:, None]
        W = wedge_integrals((wedge.cphi, wedge.sphi), y0, H2, power, want_gradient)
        val += W[0] @ wts
        if want_gradient:
            # as in _Wedge.integral, summed over the nodes
            Ww = W[1] * wts
            grad[:, :m] += ((W[2] @ wts).T @ wedge.P
                            - power * np.einsum("bn,kbn->bk", Ww, Z) @ wedge.L)
            grad[:, m:] += -power * ceta_xy * Ww.sum(axis=1)[:, None]
    if want_gradient:
        grad *= wedge.jac
    return val * wedge.jac, grad


def _sweep_group(wedge: _Wedge, P: np.ndarray, b: np.ndarray, E: np.ndarray,
                 ceta_xy: np.ndarray, sheet: tuple[np.ndarray, float], power: int,
                 want_gradient: bool, tol: tuple[float, float]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int]:
    """One kernel's values, errors, gradients and grid nodes at the rows b
    (B, m) of one group, swept on its first row's grid (``sheet`` that
    row's (tau*, r*), P = M^T Q M) until the raw (abs, rel) ``tol`` holds;
    a QuadratureError names the group's row (0 for a grid over budget)."""
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
        v_hi, g_hi = _sweep(wedge, y0, z, E, *_swept_grid(R, breaks, tail, _ORDER),
                            power, want_gradient, ceta_xy, chunk)
        v_lo, _ = _sweep(wedge, y0, z, E, *_swept_grid(R, breaks, tail, _ORDER_LOW),
                         power, False, ceta_xy, chunk)
        evals += (n_hi + n_lo) * B
        err = np.abs(v_hi - v_lo)
        bound = np.maximum(tol[0], tol[1] * np.abs(v_hi))
        if np.all(err <= bound):
            return v_hi, err, g_hi, evals
    row = int(np.argmax(err / bound))
    shape = " x ".join(str(n * _ORDER) for n in panels)
    raise QuadratureError(
        f"no convergence after {_REFINE_PASSES + 1} passes: r* = "
        f"{r_star:.3e}, grid {shape}, error {err[row]:.3e} "
        f"against tolerance {bound[row]:.3e}", row=row)


def power_kernel_integral(Q: np.ndarray, c_eta: float, b: np.ndarray,
                          eta: np.ndarray, M: np.ndarray, power: int,
                          spec: QuadratureSpec, want_gradient: bool = False,
                          prefactor: float = 1.0, floor: float = 0.0,
                          frame: _Line | _Wedge | None = None) -> QuadResult:
    """Evaluate the orthant power integrals of a kernel family at a batch.

    b is (B, m) and eta (B,); M (K, m, d) stacks the cone matrices of K
    kernels that share Q, c_eta and the power.  Values and errors are
    (K, B), gradient rows (K, B, m + 2) as (b..., Re eta, Im eta).  At
    d <= 2 every (kernel, row) pair is a closed form, all in one pass; at
    d >= 3 each group of a kernel's rows (``_grid_groups``) is swept on
    its first row's grid, so rows may lie at any distance from each other.
    ``frame`` is the ``cone_frame`` of M, for a caller that keeps it;
    ``prefactor`` only converts the spec tolerances into raw-integral
    units, and the returned values are raw.

    Every refusal carries its pair's ``kernel`` and ``row``.
    SingularityProximity: before anything is evaluated, the nearest pair
    whose sheet distance is below ``floor`` or 0 (at d <= 2 with no floor
    nothing is solved, and a row on the sheet is refused by its value,
    which is not finite).  QuadratureError: a grid over the node budget, or
    a sweep that misses its tolerance after the refinement passes.
    """
    B, m = b.shape
    K, _, d = M.shape
    eta = np.ascontiguousarray(eta, dtype=complex)
    E = c_eta * (eta.real * eta.real + eta.imag * eta.imag)
    ceta_xy = c_eta * eta.view(float).reshape(B, 2)
    if frame is None:
        frame = cone_frame(Q, M)
    # the nearest (kernel, row) pair's sheet distance, exact below the floor
    nearest, groups = (math.inf, 0, 0), []
    if d <= 2:
        if floor > 0.0:
            r = closed_sheet_distances(Q, M, b, E)
            nearest = (float(r.min()), *divmod(int(np.argmin(r)), B))
        r_star = nearest[0]
    else:
        r_star = math.inf
        for k in range(K):
            kernel_groups, (r_k, row), solved = _grid_groups(Q, c_eta, M[k], b, eta, E, floor)
            groups += [(k, rows, sheet) for rows, sheet in kernel_groups]
            nearest, r_star = min(nearest, (r_k, k, row)), min(r_star, solved)
    r, k, row = nearest
    if r < floor:
        raise SingularityProximity(f"distance {r:.3e} from the singular stratum is below "
                                   f"the resolution floor {floor:.3e}", k, row)
    if d <= 2:
        # every (kernel, row) pair is a closed form
        if d == 0:
            dist2 = np.einsum("bm,mk,bk->b", b, Q, b) + E
            val = np.tile(dist2 ** (-0.5 * power), (K, 1))
            grad = None
            if want_gradient:
                core = dist2 ** (-0.5 * (power + 2))
                grad = np.empty((K, B, m + 2))
                grad[..., :m] = -power * (b @ Q) * core[:, None]
                grad[..., m:] = -power * ceta_xy * core[:, None]
        else:
            val, grad = frame.integral(b, E, power, want_gradient, ceta_xy)
        if np.isfinite(val).all():
            return QuadResult(val, np.zeros_like(val), grad, K * B, True, r_star)
        # with no floor nothing was solved: a row on the sheet reads inf
        row, k = divmod(int(np.argmax(~np.isfinite(val.T))), K)
        r = 0.0
    if r <= 0.0:
        raise SingularityProximity(f"row {row} lies on the kernel's singular sheet", k, row)

    tol = (spec.abs_tol / max(prefactor, 1e-300), spec.rel_tol)
    vals, errs = np.empty((K, B)), np.empty((K, B))
    grads = np.empty((K, B, m + 2)) if want_gradient else None
    evals = 0
    for k, rows, sheet in groups:
        try:
            v, e, g, n = _sweep_group(frame[k], M[k].T @ Q @ M[k], b[rows], E[rows],
                                      ceta_xy[rows], sheet, power, want_gradient, tol)
        except QuadratureError as exc:
            exc.kernel, exc.row = k, int(rows[exc.row])
            raise
        vals[k, rows], errs[k, rows] = v, e
        evals += n
        if want_gradient:
            grads[k, rows] = g
    return QuadResult(vals, errs, grads, evals, True, r_star)


def qmc_power_kernel_integral(Q: np.ndarray, c_eta: float, b: np.ndarray,
                              eta: complex, M: np.ndarray, power: int,
                              n_pow2: int = 17, replicates: int = 8,
                              seed: int = 20240817) -> tuple[float, float]:
    """Scrambled-Sobol oracle for the same integral.

    Maps the cube radially, r = u_0 / (1 - u_0) and tau = r omega with
    omega on the simplex by stick-breaking, Jacobian
    (1 + r)^2 r^(d-1) prod (1 - u_i)^(d-1-i): the integrand stays bounded
    where p >= d + 1, also where every axis is large together.  Returns the
    mean of the replicate estimates and their standard error; independent
    of the panel engine by construction, for cross-checks only.
    """
    from scipy.stats import qmc

    b = np.asarray(b, dtype=float)
    d = M.shape[1]
    E = c_eta * abs(eta) ** 2
    if d == 0:
        val = float((b @ Q @ b + E) ** (-0.5 * power))
        return val, 0.0
    estimates = []
    for r in range(replicates):
        eng = qmc.Sobol(d, scramble=True, seed=seed + r)
        u = eng.random(2 ** n_pow2)
        u = np.clip(u, 1e-12, 1.0 - 1e-9)
        rad = u[:, 0] / (1.0 - u[:, 0])
        jac = (1.0 + rad) ** 2 * rad ** (d - 1)
        omega, left = [], 1.0
        for ui in u[:, 1:].T:
            omega.append(left * ui)
            jac = jac * left
            left = left * (1.0 - ui)
        X = b[None, :] - (rad[:, None] * np.column_stack(omega + [left])) @ M.T
        dist2 = np.einsum("nm,mk,nk->n", X, Q, X) + E
        estimates.append(float(np.mean(dist2 ** (-0.5 * power) * jac)))
    est = np.array(estimates)
    mean = float(est.mean())
    se = float(est.std(ddof=1) / math.sqrt(replicates))
    return mean, se
