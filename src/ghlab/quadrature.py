"""Deterministic quadrature engine for the singular orthant integrals.

Every kernel in this package is an integral over an orthant of a power of
an anisotropic distance,

    integral over tau in R_+^d of ((b - M tau)^T Q (b - M tau) + E)^(-p/2),

optionally together with its derivatives with respect to b and the two real
components hidden in E = c |eta|^2.  The integrand is smooth but sharply
peaked where the affine sheet {b - M tau} passes closest to the origin, and
it decays like |tau|^(-p) with p > d, so the tail carries mass ~ T^(d-p).

The last cone column m is integrated in closed form.  With
X0 = b - M' tau' for the first d - 1 parameters, the integrand along m is
(a t^2 - 2 beta t + gamma)^(-p/2) with a = m^T Q m, beta = m^T Q X0 and
gamma = X0^T Q X0 + E.  With D = a gamma - beta^2 the substitution
t = beta / a + sqrt(D) / a tan(theta) gives

    J_p = a^((p-2)/2) D^((1-p)/2) integral_{theta0}^{pi/2} cos^(p-2),

theta0 = atan2(-beta, sqrt(D)).  ``half_line_integrals`` evaluates the
angle integral over the complementary angle phi0 = pi/2 - theta0 without
cancellation: an all-positive Wallis recursion where beta >= 0, the
incomplete beta function of sin^2 phi0 where beta < 0 and phi0 is small.  D is formed as a
times the Q-distance from X0 to the line along m (plus aE), never as the
difference a gamma - beta^2.  The gradient needs J_(p+2) only: the first
moment along m integrates by parts to the boundary value gamma^(-p/2).

The remaining d - 1 parameters are swept by a fixed-construction panel
scheme: per-axis Gauss-Legendre panels geometrically graded around the
orthant-projected closest point.  The construction depends only on the
inputs, never on timing or thread count, so results are bit-reproducible.
The error estimate compares two Gauss orders on the same panels.

At d = 2 (one swept parameter) nothing is truncated.  The graded panels
cover [0, R], with R a fixed multiple of the larger of tau*_0 + w_0 and
the moduli of the complex zeros of h and gamma along the swept axis, and
one more panel covers [R, inf) under tau = R / s, s in (0, 1], weight
R / s^2.  The mapped integrand is R^(2-p) s^(p-3) g(s) with g analytic
for |s| < R / (those moduli), so the same two Gauss orders integrate the
whole half line and the error estimate is the two-order difference alone.

At d >= 3 the corner |tau'| -> inf stays singular under such a map, so
the panels grow geometrically out to an analytically chosen truncation
radius T and the estimate adds the bound on the mass beyond |tau| > T; it
covers the truncated region {tau' outside [0, T]^(d-1)} x [0, inf), which
lies inside {|tau| > T}.  At d = 1 nothing is swept and the value is a
closed form.  An integral that misses its tolerance after the refinement
passes raises QuadratureError; no unconverged value is returned.

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

from .geometry import ball_volume

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "QuadratureError",
    "SingularityProximity",
    "half_line_integrals",
    "nonneg_argmin",
    "power_kernel_integral",
    "qmc_power_kernel_integral",
    "sheet_distance",
    "gauss_rule",
    "panel_nodes",
]


class QuadratureError(RuntimeError):
    """Raised when the engine cannot deliver the requested tolerance."""


class SingularityProximity(ValueError):
    """Evaluation point too close to the integrand's singular sheet."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and knobs for the panel engine.

    abs_tol/rel_tol apply to the final (prefactor-scaled) kernel value;
    the error they bound is the two-order Gauss difference on the swept
    d - 1 parameters, plus, at d >= 3 only, the analytic tail bound beyond
    the truncation radius.  The last cone parameter is integrated exactly,
    and at d = 2 the mapped tail panel reaches infinity, so neither adds
    error.  max_evals bounds grid nodes of the swept parameters per batch
    element; refine_levels is the number of extra, finer passes tried
    before QuadratureError is raised.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_evals: int = 4_000_000
    order: int = 16
    order_low: int = 8
    refine_levels: int = 1

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_evals < 1000:
            raise ValueError("max_evals must be at least 1000")


@dataclass
class QuadResult:
    value: np.ndarray          # (B,) raw integral values, no prefactor
    error: np.ndarray          # (B,) error estimates, raw units
    gradient: np.ndarray | None  # (B, dim+2) d/d(b, Re eta, Im eta), raw
    evals: int                 # swept grid nodes times batch rows
    converged: bool            # always True: a miss raises QuadratureError
    r_star: float              # distance from the sheet to the first point


@lru_cache(maxsize=32)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panel_nodes(breaks: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the panels between consecutive breaks."""
    x, w = gauss_rule(order)
    a = breaks[:-1]
    h = np.diff(breaks)
    nodes = a[:, None] + 0.5 * h[:, None] * (x[None, :] + 1.0)
    wts = 0.5 * h[:, None] * w[None, :]
    return nodes.ravel(), wts.ravel()


def nonneg_argmin(P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize tau^T P tau - 2 q^T tau over tau >= 0, exactly.

    P must be SPD.  At d <= 2 the minimizer is a closed form: the free
    minimizer P^-1 q when it lies in the orthant, else the better of the
    minimizers along the two edges.  Larger d enumerates active sets.
    Returns (tau*, minimum value).
    """
    d = P.shape[0]
    if d == 0:
        return np.zeros(0), 0.0
    if d == 1:
        t = max(float(q[0]) / float(P[0, 0]), 0.0)
        return np.array([t]), -float(q[0]) * t
    if d == 2:
        p00, p01, p11 = float(P[0, 0]), float(P[0, 1]), float(P[1, 1])
        q0, q1 = float(q[0]), float(q[1])
        det = p00 * p11 - p01 * p01
        t0, t1 = (p11 * q0 - p01 * q1) / det, (p00 * q1 - p01 * q0) / det
        if t0 < 0.0 or t1 < 0.0:
            # the minimum lies on an edge; along each, tau_k = max(q_k / P_kk, 0)
            e0, e1 = max(q0 / p00, 0.0), max(q1 / p11, 0.0)
            t0, t1 = (e0, 0.0) if q0 * e0 >= q1 * e1 else (0.0, e1)
        return np.array([t0, t1]), -(q0 * t0 + q1 * t1)
    return _enumerate_argmin(P, q)


def _enumerate_argmin(P: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """nonneg_argmin by enumerating the 2^d active sets and checking the
    KKT sign conditions (d is at most 4 or 5 here)."""
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
    r* = sqrt(|b - M tau*|_Q^2 + E) from the point b to the sheet."""
    tau, _ = nonneg_argmin(M.T @ Q @ M, M.T @ (Q @ b))
    x = b - M @ tau
    return tau, math.sqrt(float(x @ Q @ x) + E)


def _axis_breakpoints(center: float, width: float, T: float,
                      fine_levels: int = 3) -> np.ndarray:
    """Geometric panel breakpoints on [0, T] clustered around ``center``."""
    pts = {0.0, T}
    c = min(max(center, 0.0), T)
    if 0.0 < c < T:
        pts.add(c)
    w = width
    # refine below the peak scale, then grow geometrically to the ends
    for j in range(-fine_levels, 60):
        step = w * (2.0 ** j)
        lo, hi = c - step, c + step
        added = False
        if 0.0 < lo < T:
            pts.add(lo)
            added = True
        if 0.0 < hi < T:
            pts.add(hi)
            added = True
        if j > 0 and not added:
            break
    breaks = np.array(sorted(pts))
    # drop near-duplicates only, relative to the break itself: a threshold
    # relative to T would merge the peak's fine panels once T is large
    keep = np.concatenate([[True], np.diff(breaks) > 1e-13 * breaks[1:]])
    return breaks[keep]


# at d = 2 the graded panels end at this multiple of the swept axis's
# largest length scale, where the mapped tail panel takes over: the
# integrand's singularities then sit at |s| >= 4, so an n-point Gauss rule
# on (0, 1] errs by about 18^(-2n) there
_TAIL_START = 4.0


# ---------------------------------------------------------------------------
# the closed-form axis

# below this sin^2(phi0), with beta < 0, the Wallis recursion would lose
# digits to cancellation; the incomplete beta function takes over there
_BETAINC_X = 0.25


def half_line_integrals(a: float, beta: np.ndarray, h: np.ndarray,
                        qs: tuple[int, ...]) -> list[np.ndarray]:
    """J_q = integral_0^inf (a t^2 - 2 beta t + gamma)^(-q/2) dt, for q in qs.

    h = gamma - beta^2 / a = D / a > 0 is the minimum of the quadratic over
    the real line; it is passed in directly because forming it from gamma
    cancels near the singular sheet.  The qs ascend in steps of 2 from at
    least 2.  J_q = a^(-1/2) h^((1-q)/2) S_(q-2)(phi0), where
    S_k(phi0) = integral_0^phi0 sin^k and phi0 = atan2(sqrt(D), -beta).
    """
    beta = np.asarray(beta, dtype=float)
    h = np.asarray(h, dtype=float)
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
    scale = h ** (0.5 * (1 - qs[0])) / math.sqrt(a)
    out = []
    for q in qs:
        out.append(S[q - 2] * scale)
        scale = scale / h
    return out


@dataclass(frozen=True)
class _Line:
    """Data of the quadratic along the last cone column, per batch row.

    beta and Z = L X0 are affine in the swept parameters tau':
    beta = beta0 - u . tau' and Z = z0 - G tau'.  L^T L = Q - Q m m^T Q / a,
    so |Z|^2 is the squared Q-distance from X0 to the line along m.
    """

    a: float              # m^T Q m
    Qm: np.ndarray        # (m,)
    L: np.ndarray         # (m-1, m)
    beta0: np.ndarray     # (B,)
    u: np.ndarray         # (d-1,)
    z0: np.ndarray        # (m-1, B)
    G: np.ndarray         # (m-1, d-1)
    E: np.ndarray         # (B,)

    @classmethod
    def build(cls, Q: np.ndarray, M: np.ndarray, b: np.ndarray,
              E: np.ndarray) -> "_Line":
        m_col = M[:, -1]
        Mp = M[:, :-1]
        Qm = Q @ m_col
        a = float(m_col @ Qm)
        # the projected form has one null direction (m itself), sorted first
        lam, vec = np.linalg.eigh(Q - np.outer(Qm, Qm) / a)
        L = vec[:, 1:].T * np.sqrt(np.maximum(lam[1:], 0.0))[:, None]
        return cls(a, Qm, L, b @ Qm, Mp.T @ Qm, L @ b.T, L @ Mp, E)


def _tensor_grid(axes: list[tuple[np.ndarray, np.ndarray]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product nodes (len(axes), n) and weights (n,)."""
    wts = np.ones(())
    for _, wt in axes:
        wts = np.multiply.outer(wts, wt)
    if not axes:
        return np.zeros((0, 1)), wts.reshape(1)
    grids = np.meshgrid(*[nd for nd, _ in axes], indexing="ij")
    return np.stack([g.ravel() for g in grids]), wts.ravel()


def _sweep(line: _Line, axes: list[tuple[np.ndarray, np.ndarray]],
           power: int, want_gradient: bool, ceta_xy: np.ndarray, chunk: int
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """One sweep over the first d - 1 parameters, the last one exact."""
    B, m = line.beta0.shape[0], line.L.shape[1]
    val = np.zeros(B)
    grad = np.zeros((B, m + 2)) if want_gradient else None
    qs = (power, power + 2) if want_gradient else (power,)
    nodes, weights = _tensor_grid(axes)
    for start in range(0, len(weights), chunk):
        tau = nodes[:, start:start + chunk]
        wts = weights[start:start + chunk]
        # component-major (m-1, B, n): long inner loops for numpy
        beta = line.beta0[:, None] - line.u @ tau               # (B, n)
        Z = line.z0[:, :, None] - (line.G @ tau)[:, None, :]
        h = np.einsum("kbn,kbn->bn", Z, Z) + line.E[:, None]
        J = half_line_integrals(line.a, beta, h, qs)
        val += J[0] @ wts
        if want_gradient:
            # d/db = -p [J_(p+2) Q Y - Q m (beta J_(p+2) / a - K_(p+2))]
            # with Q Y = L^T Z the part of Q X0 across m; the first moment
            # K obeys a K - beta J = gamma^(-p/2) / p
            Jw = J[1] * wts
            bound = (h + beta * beta / line.a) ** (-0.5 * power) @ wts
            grad[:, :m] += (-power * np.einsum("bn,kbn->bk", Jw, Z) @ line.L
                            + np.outer(bound, line.Qm / line.a))
            grad[:, m:] += -power * ceta_xy * Jw.sum(axis=1)[:, None]
    return val, grad


def power_kernel_integral(Q: np.ndarray, c_eta: float, b: np.ndarray,
                          eta: complex | np.ndarray, M: np.ndarray, power: int,
                          spec: QuadratureSpec, want_gradient: bool = False,
                          prefactor: float = 1.0,
                          sheet: tuple[np.ndarray, float] | None = None
                          ) -> QuadResult:
    """Evaluate the orthant power integral, batched over base points.

    b may be (m,) or (B, m); eta scalar or (B,).  At d <= 1 every row is a
    closed form, so rows may lie at any distance from each other.  At
    d >= 2 the panel construction is derived from the first row and every
    row is swept on it, which holds only for rows within half the first
    row's sheet distance r* of it; ``kernels.alpha_batch`` splits its
    batches so.  ``sheet`` passes the first row's (tau*, r*) from
    ``sheet_distance`` when the caller has solved it already.
    ``prefactor`` only converts the spec tolerances into raw-integral
    units; the returned values are raw.  Raises QuadratureError when the
    grid exceeds the node budget or the refinement passes miss the
    tolerance.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    B, m = b.shape
    eta_arr = np.full(B, eta, dtype=complex) if np.ndim(eta) == 0 else np.asarray(eta, dtype=complex)
    eta_xy = np.stack([eta_arr.real, eta_arr.imag], axis=1)
    E = c_eta * np.abs(eta_arr) ** 2
    d = M.shape[1]

    # closest sheet point for the leading row
    P = M.T @ Q @ M
    if sheet is None:
        sheet = sheet_distance(Q, M, b[0], E[0])
    tau_star, r_star = sheet

    if d == 0:
        dist2 = np.einsum("bm,mk,bk->b", b, Q, b) + E
        val = dist2 ** (-0.5 * power)
        grad = None
        if want_gradient:
            core = dist2 ** (-0.5 * (power + 2))
            grad = np.empty((B, m + 2))
            grad[:, :m] = -power * (b @ Q) * core[:, None]
            grad[:, m] = -power * c_eta * eta_xy[:, 0] * core
            grad[:, m + 1] = -power * c_eta * eta_xy[:, 1] * core
        return QuadResult(val, np.zeros(B), grad, B, True, r_star)

    if r_star <= 0.0:
        raise SingularityProximity("point lies on the kernel's singular sheet")

    line = _Line.build(Q, M, b, E)
    ceta_xy = c_eta * eta_xy
    if d == 1:
        # nothing is left to sweep: the closed form is the whole integral
        val, grad = _sweep(line, [], power, want_gradient, ceta_xy, 1)
        return QuadResult(val, np.zeros(B), grad, B, True, r_star)

    abs_raw = spec.abs_tol / max(prefactor, 1e-300)
    widths = [max(r_star / math.sqrt(max(P[k, k], 1e-300)), 1e-8)
              for k in range(d - 1)]
    if d == 2:
        # graded panels on [0, T], then tau = T / s maps [T, inf) onto one
        # panel s in (0, 1]: the mapped integrand is T^(2-p) s^(p-3) g(s)
        # with g analytic, so nothing is truncated.  g is singular only at
        # the complex zeros of h and gamma along the swept axis; T keeps
        # them at |s| >= _TAIL_START
        z0, g = line.z0[:, 0], line.G[:, 0]
        h0 = float(z0 @ z0) + float(E[0])
        gamma0 = h0 + float(line.beta0[0]) ** 2 / line.a
        rho = math.sqrt(max(h0 / float(g @ g), gamma0 / float(P[0, 0])))
        T = _TAIL_START * max(float(tau_star[0]) + widths[0], rho)
        tail_bound = 0.0
    else:
        # the corner |tau'| -> inf stays singular under such a map, so the
        # sweep is truncated at T.  The integrand is below
        # (lamP (|tau| - |tau*|)^2)^(-p/2) out there, and the mass beyond
        # radius T is below surf 2^p lamP^(-p/2) T^(d-p) / (p - d)
        lamP = float(np.linalg.eigvalsh(P)[0])
        surf = d * ball_volume(d) / 2.0 ** d
        T = (surf * 2.0 ** power * lamP ** (-0.5 * power)
             / ((power - d) * 0.5 * abs_raw)) ** (1.0 / (power - d))
        T = max(T, 4.0 * (float(np.linalg.norm(tau_star)) + 1.0), 8.0 * r_star)
        tail_bound = (surf * 2.0 ** power * lamP ** (-0.5 * power)
                      * T ** (d - power) / (power - d))

    def build_axes(extra_split: int, order: int) -> list[tuple[np.ndarray, np.ndarray]]:
        axes = []
        for k in range(d - 1):
            br = _axis_breakpoints(float(tau_star[k]), widths[k], T,
                                   fine_levels=3 + extra_split)
            if extra_split:
                mids = 0.5 * (br[:-1] + br[1:])
                br = np.sort(np.concatenate([br, mids]))
            nodes, wts = panel_nodes(br, order)
            if d == 2:
                s, ws = panel_nodes(np.array([0.0, 0.5, 1.0] if extra_split
                                             else [0.0, 1.0]), order)
                nodes = np.concatenate([nodes, T / s])
                wts = np.concatenate([wts, ws * T / (s * s)])
            axes.append((nodes, wts))
        return axes

    # about 2^14 elements per temporary array, so a chunk stays in cache
    chunk = max(1 << 10, (1 << 14) // max(B, 1))
    evals = 0
    for attempt in range(spec.refine_levels + 1):
        hi = build_axes(attempt, spec.order)
        lo = build_axes(attempt, spec.order_low)
        n_hi = math.prod(len(nd) for nd, _ in hi)
        n_lo = math.prod(len(nd) for nd, _ in lo)
        if n_hi + n_lo > spec.max_evals:
            raise QuadratureError(
                f"panel grid needs {n_hi + n_lo} evaluations per point, "
                f"budget is {spec.max_evals}")
        v_hi, g_hi = _sweep(line, hi, power, want_gradient, ceta_xy, chunk)
        v_lo, _ = _sweep(line, lo, power, False, ceta_xy, chunk)
        evals += (n_hi + n_lo) * B
        err = np.abs(v_hi - v_lo) + tail_bound
        tol = np.maximum(abs_raw, spec.rel_tol * np.abs(v_hi))
        if np.all(err <= tol):
            return QuadResult(v_hi, err, g_hi, evals, True, r_star)
    row = int(np.argmax(err / tol))
    shape = " x ".join(str(len(nd)) for nd, _ in hi)
    raise QuadratureError(
        f"no convergence after {spec.refine_levels + 1} passes: r* = "
        f"{r_star:.3e}, grid {shape}, row {row} error {err[row]:.3e} "
        f"(tail bound {tail_bound:.3e}) against tolerance {tol[row]:.3e}")


def qmc_power_kernel_integral(Q: np.ndarray, c_eta: float, b: np.ndarray,
                              eta: complex, M: np.ndarray, power: int,
                              n_pow2: int = 17, replicates: int = 8,
                              seed: int = 20240817) -> tuple[float, float]:
    """Scrambled-Sobol oracle for the same integral.

    Maps the orthant through t = u / (1 - u) per axis.  Returns the mean of
    the replicate estimates and their standard error.  Independent of the
    panel engine by construction; used only for cross-checks.
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
        t = u / (1.0 - u)
        jac = np.prod((1.0 - u) ** -2, axis=1)
        X = b[None, :] - t @ M.T
        dist2 = np.einsum("nm,mk,nk->n", X, Q, X) + E
        estimates.append(float(np.mean(dist2 ** (-0.5 * power) * jac)))
    est = np.array(estimates)
    mean = float(est.mean())
    se = float(est.std(ddof=1) / math.sqrt(replicates))
    return mean, se
