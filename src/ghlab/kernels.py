"""Green-kernel building blocks of the asymptotic ansatz.

Each kernel is attached to a pair of labels {i, j} from {0, ..., N} and is
a positive function on the base, harmonic for the anisotropic Laplacian
away from the corresponding codimension-three stratum, blowing up like the
reciprocal distance there.  A pair containing the label 0 is an "axis"
kernel, integrating the fundamental solution over the stratum's positive
cone in N-1 parameters; a pair of nonzero labels adds one more parameter
sweeping the diagonal direction.

A kernel may be restricted to a subset I: the restriction lives on the
model space spanned by the I-labelled slots, uses the Schur-reduced
quadratic form there, and keeps the full determinant as the fiber weight.
Kernels whose labels are not members of the restriction are identically
zero by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BasePoint, IndexSet, QuadForm, ball_volume, block, schur_complement
from .quadrature import (
    QuadratureSpec,
    SingularityProximity,
    closed_sheet_distances,
    panel_nodes,
    power_kernel_integral,
    qmc_power_kernel_integral,
    sheet_distance,
)

__all__ = [
    "KernelSpec",
    "KernelValue",
    "kernel_prefactor",
    "alpha",
    "alpha_grad",
    "alpha_batch",
    "beta",
    "closed_form_axis",
    "RadialBump",
    "WeakCheckResult",
    "weak_distributional_check",
    "qmc_alpha_oracle",
]


def kernel_prefactor(n: int, det_q: float) -> float:
    """Normalization making the kernel's distributional charge 2 pi sqrt(det)."""
    return 2.0 * math.pi * math.sqrt(det_q) / (n * (n + 2) * ball_volume(n + 2))


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: a quadratic form, a label pair, an optional restriction.

    labels are two distinct members of {0..N}; a zero member selects the
    axis family.  ``restriction`` of None means the full-space kernel.
    """

    A: QuadForm
    labels: tuple[int, int]
    restriction: IndexSet | None = None

    def __post_init__(self) -> None:
        i, j = sorted(self.labels)
        object.__setattr__(self, "labels", (i, j))
        if i == j:
            raise ValueError("kernel labels must be distinct")
        if not (0 <= i and j <= self.A.n):
            raise ValueError("kernel labels out of range")
        if self.restriction is not None:
            self.restriction.require_stratum(self.A.n)

    @property
    def is_axis(self) -> bool:
        return self.labels[0] == 0

    @property
    def vanishes(self) -> bool:
        """True when the restriction convention makes the kernel zero."""
        if self.restriction is None:
            return False
        return not set(self.labels) <= set(self.restriction.members)


@dataclass
class KernelValue:
    value: float
    error: float
    evals: int
    sheet_distance: float
    gradient: np.ndarray | None = None   # d/d(mu_1..mu_N, Re eta, Im eta)


def _assemble(spec: KernelSpec) -> tuple[np.ndarray, float, tuple[int, ...],
                                         np.ndarray, int, float]:
    """Reduce a kernel to engine data (Q, c_eta, active labels, M, power,
    prefactor)."""
    A = spec.A
    N = A.n
    if spec.restriction is None:
        S: tuple[int, ...] = tuple(range(1, N + 1))
        Q = A.entries
        det_q = A.det
    else:
        S = spec.restriction.active
        G = schur_complement(A, spec.restriction)
        Q = G.entries
        det_q = G.det
    n = len(S)
    pos = {lab: k for k, lab in enumerate(S)}
    cols = []
    i, j = spec.labels
    if spec.is_axis:
        for lab in S:
            if lab != j:
                e = np.zeros(n)
                e[pos[lab]] = 1.0
                cols.append(e)
    else:
        cols.append(-np.ones(n))
        for lab in S:
            if lab not in (i, j):
                e = np.zeros(n)
                e[pos[lab]] = 1.0
                cols.append(e)
    M = np.column_stack(cols) if cols else np.zeros((n, 0))
    return Q, A.det, S, M, n, kernel_prefactor(n, det_q)


def _active_mu(S: tuple[int, ...], p: BasePoint) -> np.ndarray:
    return p.mu[[lab - 1 for lab in S]]


def _floor(quad: QuadratureSpec, N: int) -> float:
    return 10.0 * quad.abs_tol ** (1.0 / N)


def alpha(spec: KernelSpec, quad: QuadratureSpec, p: BasePoint) -> KernelValue:
    """Kernel value at a base point, with an error estimate.

    Raises SingularityProximity when the point is within the resolution
    floor of the kernel's singular stratum.
    """
    return _evaluate(spec, quad, p, want_gradient=False)


def alpha_grad(spec: KernelSpec, quad: QuadratureSpec, p: BasePoint) -> KernelValue:
    """Kernel value and full-space gradient (mu slots, Re eta, Im eta).

    Derivatives are taken under the integral sign; inactive slots of a
    restricted kernel get exact zeros.
    """
    return _evaluate(spec, quad, p, want_gradient=True)


def _evaluate(spec: KernelSpec, quad: QuadratureSpec, p: BasePoint,
              want_gradient: bool) -> KernelValue:
    N = spec.A.n
    if p.N != N:
        raise ValueError("point dimension mismatch")
    if spec.vanishes:
        g = np.zeros(N + 2) if want_gradient else None
        return KernelValue(0.0, 0.0, 0, math.inf, g)
    Q, c_eta, S, M, power, pref = _assemble(spec)
    b = _active_mu(S, p)
    res = power_kernel_integral(Q, c_eta, b, p.eta, M, power, quad,
                                want_gradient=want_gradient, prefactor=pref)
    if res.r_star < _floor(quad, N):
        raise SingularityProximity(
            f"distance {res.r_star:.3e} to the singular stratum is below "
            f"the resolution floor {_floor(quad, N):.3e}")
    grad = None
    if want_gradient:
        grad = np.zeros(N + 2)
        for k, lab in enumerate(S):
            grad[lab - 1] = pref * res.gradient[0, k]
        grad[N] = pref * res.gradient[0, len(S)]
        grad[N + 1] = pref * res.gradient[0, len(S) + 1]
    return KernelValue(pref * float(res.value[0]), pref * float(res.error[0]),
                       res.evals, res.r_star, grad)


def alpha_batch(spec: KernelSpec, quad: QuadratureSpec,
                points: list[BasePoint], want_gradient: bool = False
                ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Evaluate one kernel at many points in as few engine calls as honest.

    A kernel with at most two cone columns is a closed form, so its rows
    go to one call at any distance from each other, and each row's sheet
    distance is exact.  With d >= 3 cone columns the engine sweeps every
    row of a call on a panel grid built for the call's first row; a row
    shares that grid only while its (Q, c_eta) offset from the first row
    is within half the first row's sheet distance (a finite-difference
    stencil always is), and farther rows start calls of their own.
    Returns (values, gradients, prefactor-scaled error estimates), one row
    per point; gradient rows are (mu..., Re eta, Im eta).
    """
    N = spec.A.n
    B = len(points)
    if spec.vanishes:
        g = np.zeros((B, N + 2)) if want_gradient else None
        return np.zeros(B), g, np.zeros(B)
    Q, c_eta, S, M, power, pref = _assemble(spec)
    b = np.array([q.mu for q in points])[:, [lab - 1 for lab in S]]
    eta = np.array([q.eta for q in points])
    E = c_eta * np.abs(eta) ** 2
    floor = _floor(quad, N)
    if M.shape[1] <= 2:
        tau, r = closed_sheet_distances(Q, M, b, E)
        groups = [(np.arange(B), (tau[0], float(r[0])))]
        r_min = float(np.min(r))
    else:
        groups, r_min = _grid_groups(Q, c_eta, M, b, eta, E, floor)
    if r_min < floor:
        raise SingularityProximity(
            f"batch row at distance {r_min:.3e} from the singular stratum "
            f"is below the resolution floor {floor:.3e}")
    cols = [lab - 1 for lab in S] + [N, N + 1]   # engine gradient columns
    grads = np.zeros((B, N + 2)) if want_gradient else None
    vals = np.empty(B)
    errs = np.empty(B)
    for rows, sheet in groups:
        res = power_kernel_integral(Q, c_eta, b[rows], eta[rows], M, power,
                                    quad, want_gradient=want_gradient,
                                    prefactor=pref, sheet=sheet)
        vals[rows] = pref * res.value
        errs[rows] = pref * res.error
        if want_gradient:
            grads[rows[:, None], cols] = pref * res.gradient
    return vals, grads, errs


def _grid_groups(Q: np.ndarray, c_eta: float, M: np.ndarray, b: np.ndarray,
                 eta: np.ndarray, E: np.ndarray, floor: float
                 ) -> tuple[list[tuple[np.ndarray, tuple]], float]:
    """Rows that may share one panel grid, each group with its first row's
    sheet solution (tau*, r*), and a lower bound on every row's sheet
    distance that is exact wherever it is below ``floor``.

    Each group is the first unplaced row plus every unplaced row whose
    (Q, c_eta) offset from it is within half its sheet distance r*.  The
    sheet distance is 1-Lipschitz in that norm, so r* less the group's
    widest offset bounds the group; only below the floor is each row
    solved exactly.
    """
    todo = np.arange(len(b))
    groups, r_min = [], math.inf
    while todo.size:
        k = todo[0]
        sheet = sheet_distance(Q, M, b[k], E[k])
        r_k = sheet[1]
        db = b[todo] - b[k]
        off = np.sqrt(((db @ Q) * db).sum(axis=1)
                      + c_eta * np.abs(eta[todo] - eta[k]) ** 2)
        near = off <= 0.5 * r_k
        rows = todo[near]
        bound = r_k - float(np.max(off[near]))
        if bound < floor:
            bound = min(sheet_distance(Q, M, b[j], E[j])[1] for j in rows)
        groups.append((rows, sheet))
        r_min = min(r_min, bound)
        todo = todo[~near]
    return groups, r_min


def beta(A: QuadForm, I: IndexSet, i: int, j: int, quad: QuadratureSpec,
         p: BasePoint) -> KernelValue:
    """Smooth remainder: full kernel minus its I-restricted model.

    When a label falls outside I the restricted part is zero by convention
    and the remainder is the full kernel itself.
    """
    full = alpha(KernelSpec(A, (i, j)), quad, p)
    part = alpha(KernelSpec(A, (i, j), restriction=I), quad, p)
    return KernelValue(full.value - part.value, full.error + part.error,
                       full.evals + part.evals,
                       min(full.sheet_distance, part.sheet_distance))


def closed_form_axis(A: QuadForm, i: int, p: BasePoint,
                     restriction: IndexSet | None = None) -> float:
    """Exact value of an axis kernel with a single active slot.

    Valid for N = 1, or for a restriction whose only nonzero member is i.
    Equals 1 / (2 sqrt(mu_i^2 + D |eta|^2)) with D the determinant of the
    complementary block of A.
    """
    N = A.n
    if restriction is None:
        if N != 1:
            raise ValueError("unrestricted closed form needs N = 1")
        comp: tuple[int, ...] = ()
    else:
        if restriction.active != (i,):
            raise ValueError("restriction must have i as its only active label")
        comp = restriction.active_complement(N)
    D = float(np.linalg.det(block(A.entries, comp, comp))) if comp else 1.0
    mu_i = p.mu[i - 1]
    return 1.0 / (2.0 * math.sqrt(mu_i ** 2 + D * abs(p.eta) ** 2))


def qmc_alpha_oracle(spec: KernelSpec, p: BasePoint, n_pow2: int = 17,
                     replicates: int = 8, seed: int = 20240817
                     ) -> tuple[float, float]:
    """Low-discrepancy estimate of the same kernel, for cross-validation."""
    Q, c_eta, S, M, power, pref = _assemble(spec)
    b = _active_mu(S, p)
    mean, se = qmc_power_kernel_integral(Q, c_eta, b, p.eta, M, power,
                                         n_pow2=n_pow2, replicates=replicates,
                                         seed=seed)
    return pref * mean, pref * se


# ---------------------------------------------------------------------------
# weak distributional identity


class RadialBump:
    """Smooth compactly supported test function, radial in eta.

    value = amp * psi(|mu - mu0|^2 / r_mu^2) * psi(|eta|^2 / r_eta^2) with
    psi(s) = exp(1 - 1/(1 - s)) under 1 and zero beyond.  Radial in eta so
    the fiber integral reduces to one radial variable; the anisotropic
    Laplacian is available in closed form.
    """

    def __init__(self, center_mu: np.ndarray, r_mu: float, r_eta: float,
                 amplitude: float = 1.0) -> None:
        self.center = np.asarray(center_mu, dtype=float)
        if r_mu <= 0 or r_eta <= 0:
            raise ValueError("bump radii must be positive")
        self.r_mu = float(r_mu)
        self.r_eta = float(r_eta)
        self.amplitude = float(amplitude)

    @staticmethod
    def _psi(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = np.asarray(s, dtype=float)
        inside = s < 1.0
        g = np.where(inside, 1.0 - s, 1.0)
        val = np.where(inside, np.exp(1.0 - 1.0 / g), 0.0)
        d1 = np.where(inside, -val / g ** 2, 0.0)
        d2 = np.where(inside, val / g ** 4 - 2.0 * val / g ** 3, 0.0)
        return val, d1, d2

    def value(self, mu: np.ndarray, r: np.ndarray) -> np.ndarray | float:
        single = np.ndim(mu) == 1
        mu = np.atleast_2d(mu)
        u = np.sum((mu - self.center) ** 2, axis=1) / self.r_mu ** 2
        w = np.asarray(r, dtype=float) ** 2 / self.r_eta ** 2
        pu, _, _ = self._psi(u)
        pw, _, _ = self._psi(w)
        out = self.amplitude * pu * pw
        return float(out[0]) if single else out

    def laplace_A(self, A: QuadForm, mu: np.ndarray, r: np.ndarray) -> np.ndarray | float:
        single = np.ndim(mu) == 1
        mu = np.atleast_2d(mu)
        d = mu - self.center
        u = np.sum(d ** 2, axis=1) / self.r_mu ** 2
        w = np.asarray(r, dtype=float) ** 2 / self.r_eta ** 2
        pu, pu1, pu2 = self._psi(u)
        pw, pw1, pw2 = self._psi(w)
        quad_inv = ((d @ A.inv) * d).sum(axis=1)
        mu_part = (4.0 / self.r_mu ** 4 * pu2 * quad_inv
                   + 2.0 / self.r_mu ** 2 * pu1 * np.trace(A.inv))
        eta_part = 4.0 / self.r_eta ** 2 * (w * pw2 + pw1) / A.det
        out = self.amplitude * (mu_part * pw + pu * eta_part)
        return float(out[0]) if single else out


@dataclass
class WeakCheckResult:
    lhs: float
    rhs: float
    rel_gap: float
    alpha_evals: int


def _alpha_exact_n2(A: QuadForm, labels: tuple[int, int], mu: np.ndarray,
                    r: np.ndarray) -> np.ndarray:
    """Exact full kernel at N = 2: the line integral is an arctan.

    With quadratic in the sweep variable a t^2 - 2 b t + c, the integral
    over the half line is (pi/2 + arctan(b / sqrt(D))) / sqrt(D) with
    D = a c - b^2.
    """
    Ae = A.entries
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    E = A.det * np.asarray(r, dtype=float) ** 2
    i, j = labels
    if i == 0:
        # axis kernel on slot j: sweep the other slot k
        k = 2 if j == 1 else 1
        direction = np.zeros(2)
        direction[k - 1] = 1.0
    else:
        direction = -np.ones(2)
    a = float(direction @ Ae @ direction)
    bq = mu @ (Ae @ direction)
    c = ((mu @ Ae) * mu).sum(axis=1) + E
    D = a * c - bq ** 2
    D = np.maximum(D, 1e-300)
    integral = (0.5 * math.pi + np.arctan(bq / np.sqrt(D))) / np.sqrt(D)
    return kernel_prefactor(2, A.det) * integral


def _graded_breaks(lo: float, hi: float, special: float | None,
                   levels: int = 12, plain: int = 8) -> np.ndarray:
    pts = set(np.linspace(lo, hi, plain + 1).tolist())
    if special is not None and lo < special < hi:
        pts.add(special)
        scale = hi - lo
        for j in range(1, levels + 1):
            step = scale * 2.0 ** (-j)
            for s in (special - step, special + step):
                if lo < s < hi:
                    pts.add(s)
    br = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(br) > 1e-14 * max(abs(lo), abs(hi), 1.0)])
    return br[keep]


def weak_distributional_check(A: QuadForm, labels: tuple[int, int],
                              bump: RadialBump, quad: QuadratureSpec,
                              order: int = 16) -> WeakCheckResult:
    """Test the kernel's distributional charge against a test function.

    lhs: the kernel integrated against the anisotropic Laplacian of the
    bump over the base with its metric volume; rhs: -2 pi sqrt(det A)
    times the bump integrated over the kernel's closed stratum with its
    cone parametrization.  For a kernel supported away from the bump both
    sides vanish; near the stratum they agree to the quadrature accuracy.
    """
    N = A.n
    i, j = sorted(labels)
    spec = KernelSpec(A, (i, j))
    use_exact = (N == 2)

    # frame adapted to the singular sheet: first axis crosses it transversally
    if i == 0:
        sheet_axis = j - 1
        U = np.eye(N)
        U[:, [0, sheet_axis]] = U[:, [sheet_axis, 0]]
        special_axis0 = -bump.center[j - 1]  # y offset where mu_j = 0
    else:
        v1 = np.zeros(N)
        v1[i - 1] = 1.0 / math.sqrt(2.0)
        v1[j - 1] = -1.0 / math.sqrt(2.0)
        basis = [v1]
        for k in range(N):
            e = np.zeros(N)
            e[k] = 1.0
            w = e - sum((e @ b) * b for b in basis)
            nw = np.linalg.norm(w)
            if nw > 1e-10:
                basis.append(w / nw)
        U = np.column_stack(basis[:N])
        special_axis0 = (bump.center[j - 1] - bump.center[i - 1]) / math.sqrt(2.0)

    R = bump.r_mu
    axes_nodes, axes_wts = [], []
    for k in range(N):
        sp = special_axis0 if k == 0 else None
        br = _graded_breaks(-R, R, sp)
        nd, wt = panel_nodes(br, order)
        axes_nodes.append(nd)
        axes_wts.append(wt)
    br_r = np.array([0.0] + [bump.r_eta * 2.0 ** (-m) for m in range(12, -1, -1)])
    r_nodes, r_wts = panel_nodes(br_r, order)

    sizes = [len(a) for a in axes_nodes] + [len(r_nodes)]
    ntot = int(np.prod(sizes))
    lhs = 0.0
    evals = 0
    chunk = 1 << 15
    for start in range(0, ntot, chunk):
        stop = min(start + chunk, ntot)
        multi = np.unravel_index(np.arange(start, stop), sizes)
        y = np.stack([axes_nodes[k][multi[k]] for k in range(N)], axis=1)
        wts = np.ones(stop - start)
        for k in range(N):
            wts = wts * axes_wts[k][multi[k]]
        r = r_nodes[multi[N]]
        wts = wts * r_wts[multi[N]] * r
        mu = bump.center[None, :] + y @ U.T
        lap = bump.laplace_A(A, mu, r)
        live = np.abs(lap) > 0.0
        if not np.any(live):
            continue
        if use_exact:
            av = _alpha_exact_n2(A, (i, j), mu[live], r[live])
            evals += int(np.count_nonzero(live))
        else:
            av = np.empty(int(np.count_nonzero(live)))
            idx = np.nonzero(live)[0]
            for t, n_idx in enumerate(idx):
                pt = BasePoint(mu[n_idx], complex(r[n_idx]))
                av[t] = alpha(spec, quad, pt).value
                evals += 1
        lhs += float(np.sum(wts[live] * lap[live] * av))
    lhs *= 2.0 * math.pi * A.det ** 1.5

    # rhs: bump over the stratum cone, eta = 0
    charge = -2.0 * math.pi * math.sqrt(A.det)
    if i == 0:
        free = [k for k in range(1, N + 1) if k != j]
        rhs = charge * _cone_integral(bump, free, order=order)
    else:
        rhs = charge * _pair_cone_integral(bump, i, j, N, order=order)
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return WeakCheckResult(lhs, rhs, abs(lhs - rhs) / denom, evals)


def _cone_integral(bump: RadialBump, free: list[int], order: int) -> float:
    """bump(iota(t), 0) over t >= 0, the axis stratum cone."""
    axes = []
    for lab in free:
        lo = max(0.0, bump.center[lab - 1] - bump.r_mu)
        hi = max(0.0, bump.center[lab - 1] + bump.r_mu)
        if hi <= lo:
            return 0.0
        nd, wt = panel_nodes(np.linspace(lo, hi, 5), order)
        axes.append((lab, nd, wt))
    sizes = [len(nd) for _, nd, _ in axes]
    ntot = int(np.prod(sizes)) if sizes else 1
    multi = np.unravel_index(np.arange(ntot), sizes) if sizes else []
    Nn = bump.center.size
    mu = np.zeros((ntot, Nn))
    wts = np.ones(ntot)
    for ax, (lab, nd, wt) in enumerate(axes):
        mu[:, lab - 1] = nd[multi[ax]]
        wts *= wt[multi[ax]]
    vals = bump.value(mu, np.zeros(ntot))
    return float(np.sum(wts * vals))


def _pair_cone_integral(bump: RadialBump, i: int, j: int, N: int,
                        order: int) -> float:
    """bump over the diagonal stratum cone: mu_i = mu_j = -s, mu_k = t_k - s."""
    ci = bump.center[i - 1]
    s_lo = max(0.0, -ci - bump.r_mu)
    s_hi = max(0.0, -ci + bump.r_mu)
    if s_hi <= s_lo:
        return 0.0
    s_nd, s_wt = panel_nodes(np.linspace(s_lo, s_hi, 5), order)
    free = [k for k in range(1, N + 1) if k not in (i, j)]
    total = 0.0
    for s, ws in zip(s_nd, s_wt):
        if free:
            axes = []
            ok = True
            for lab in free:
                lo = max(0.0, bump.center[lab - 1] + s - bump.r_mu)
                hi = max(0.0, bump.center[lab - 1] + s + bump.r_mu)
                if hi <= lo:
                    ok = False
                    break
                nd, wt = panel_nodes(np.linspace(lo, hi, 5), order)
                axes.append((lab, nd, wt))
            if not ok:
                continue
            sizes = [len(nd) for _, nd, _ in axes]
            ntot = int(np.prod(sizes))
            multi = np.unravel_index(np.arange(ntot), sizes)
            mu = np.full((ntot, N), -s)
            wts = np.ones(ntot)
            for ax, (lab, nd, wt) in enumerate(axes):
                mu[:, lab - 1] = nd[multi[ax]] - s
                wts *= wt[multi[ax]]
            total += ws * float(np.sum(wts * bump.value(mu, np.zeros(ntot))))
        else:
            mu = np.full((1, N), -s)
            total += ws * float(bump.value(mu, np.zeros(1))[0])
    return total
