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

Every kernel value goes through ``alpha_batch``, which takes a batch of
points as two arrays, mu (B, N) and eta (B,); ``alpha`` and ``alpha_grad``
are its one-row case.  It hands the rows to ``_engine_batch``, which
checks each against the resolution floor and makes the engine calls; the
gammas of ``ghlab.holo`` share it.  Only the weak charge check, whose grid
samples the integrable singularity inside that floor, calls the engine
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (BasePoint, IndexSet, QuadForm, ball_volume, block, check_batch,
                       schur_complement)
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
    """A kernel (or gamma) at one point (floats) or at a batch (arrays, one
    row per point); evals counts the engine's grid nodes."""

    value: float | np.ndarray
    error: float | np.ndarray
    evals: int
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


def _first_row(kv: KernelValue) -> KernelValue:
    grad = None if kv.gradient is None else kv.gradient[0]
    return KernelValue(float(kv.value[0]), float(kv.error[0]), kv.evals, grad)


def alpha(spec: KernelSpec, quad: QuadratureSpec, p: BasePoint) -> KernelValue:
    """Kernel value at a base point, with an error estimate: the one-row
    case of ``alpha_batch``.

    Raises SingularityProximity when the point is within the resolution
    floor of the kernel's singular stratum.
    """
    return _first_row(alpha_batch(spec, quad, p.mu[None], np.array([p.eta])))


def alpha_grad(spec: KernelSpec, quad: QuadratureSpec, p: BasePoint) -> KernelValue:
    """Kernel value and full-space gradient (mu slots, Re eta, Im eta).

    Derivatives are taken under the integral sign; inactive slots of a
    restricted kernel get exact zeros.
    """
    return _first_row(alpha_batch(spec, quad, p.mu[None], np.array([p.eta]),
                                  want_gradient=True))


def alpha_batch(spec: KernelSpec, quad: QuadratureSpec, mu: np.ndarray,
                eta: np.ndarray, want_gradient: bool = False) -> KernelValue:
    """One kernel at the batch mu (B, N), eta (B,) through
    ``_engine_batch``: values and prefactor-scaled error estimates (B,),
    gradient rows (B, N + 2) as (mu..., Re eta, Im eta), and the grid nodes
    of every call.  A mu of another width than N raises ValueError.
    """
    N = spec.A.n
    mu, eta = check_batch(mu, eta, N)
    B = len(mu)
    if spec.vanishes:
        g = np.zeros((B, N + 2)) if want_gradient else None
        return KernelValue(np.zeros(B), np.zeros(B), 0, g)
    Q, c_eta, S, M, power, pref = _assemble(spec)
    slots = [lab - 1 for lab in S]
    raw = _engine_batch(Q, c_eta, M, power, pref, mu[:, slots], eta, quad, N,
                       want_gradient)
    grads = np.zeros((B, N + 2)) if want_gradient else None
    if want_gradient:
        grads[:, slots + [N, N + 1]] = pref * raw.gradient
    return KernelValue(pref * raw.value, pref * raw.error, raw.evals, grads)


def _engine_batch(Q: np.ndarray, c_eta: float, M: np.ndarray, power: int,
                 prefactor: float, b: np.ndarray, eta: np.ndarray,
                 quad: QuadratureSpec, N: int, want_gradient: bool = False
                 ) -> KernelValue:
    """The orthant integral of engine data (Q, c_eta, M, power) at rows
    b (B, m), eta (B,) of the N-dimensional base, in as few engine calls as
    honest: raw values and error estimates (B,), gradient rows (B, m + 2) as
    (b..., Re eta, Im eta), and grid nodes.  ``prefactor`` converts the
    tolerances of ``quad`` to raw units.  A row within the resolution floor
    of the sheet raises SingularityProximity.

    At most two cone columns make a closed form: all rows go to one call.
    With d >= 3 the engine sweeps a call's rows on a grid built for its
    first row, which a row joins only while its (Q, c_eta) offset from that
    row is within half the row's sheet distance; farther rows start calls.
    """
    # as the engine forms it, so a passed sheet solution is the engine's own
    E = c_eta * (eta.real * eta.real + eta.imag * eta.imag)
    floor = 10.0 * quad.abs_tol ** (1.0 / N)
    if M.shape[1] <= 2:
        tau, r = closed_sheet_distances(Q, M, b, E)
        groups = [(slice(None), (tau[0], float(r[0])))]
        r_min = float(r.min())
    else:
        groups, r_min = _grid_groups(Q, c_eta, M, b, eta, E, floor)
    if r_min < floor:
        raise SingularityProximity(
            f"batch row at distance {r_min:.3e} from the singular stratum "
            f"is below the resolution floor {floor:.3e}")
    B = len(b)
    grads = np.empty((B, b.shape[1] + 2)) if want_gradient else None
    vals, errs = np.empty(B), np.empty(B)
    evals = 0
    for rows, sheet in groups:
        res = power_kernel_integral(Q, c_eta, b[rows], eta[rows], M, power,
                                    quad, want_gradient=want_gradient,
                                    prefactor=prefactor, sheet=sheet)
        vals[rows], errs[rows] = res.value, res.error
        evals += res.evals
        if want_gradient:
            grads[rows] = res.gradient
    return KernelValue(vals, errs, evals, grads)


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
                       full.evals + part.evals)


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
    b = p.mu[[lab - 1 for lab in S]]
    mean, se = qmc_power_kernel_integral(Q, c_eta, b, p.eta, M, power,
                                         n_pow2=n_pow2, replicates=replicates,
                                         seed=seed)
    return pref * mean, pref * se


# ---------------------------------------------------------------------------
# weak distributional identity


class RadialBump:
    """Smooth compactly supported test function, radial in eta.

    value = psi(|mu - mu0|^2 / r_mu^2) * psi(|eta|^2 / r_eta^2) with
    psi(s) = exp(1 - 1/(1 - s)) under 1 and zero beyond.  Radial in eta so
    the fiber integral reduces to one radial variable; the anisotropic
    Laplacian is available in closed form.
    """

    def __init__(self, center_mu: np.ndarray, r_mu: float, r_eta: float) -> None:
        self.center = np.asarray(center_mu, dtype=float)
        if r_mu <= 0 or r_eta <= 0:
            raise ValueError("bump radii must be positive")
        self.r_mu = float(r_mu)
        self.r_eta = float(r_eta)

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
        out = pu * pw
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
        out = mu_part * pw + pu * eta_part
        return float(out[0]) if single else out


@dataclass
class WeakCheckResult:
    lhs: float
    rhs: float
    rel_gap: float
    alpha_evals: int


def _graded_breaks(lo: float, hi: float, special: float | None) -> np.ndarray:
    """8 even panels on [lo, hi], halved 12 times toward ``special``."""
    pts = set(np.linspace(lo, hi, 9).tolist())
    if special is not None and lo < special < hi:
        pts.add(special)
        scale = hi - lo
        for j in range(1, 13):
            step = scale * 2.0 ** (-j)
            for s in (special - step, special + step):
                if lo < s < hi:
                    pts.add(s)
    br = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(br) > 1e-14 * max(abs(lo), abs(hi), 1.0)])
    return br[keep]


def weak_distributional_check(A: QuadForm, labels: tuple[int, int],
                              bump: RadialBump, quad: QuadratureSpec
                              ) -> WeakCheckResult:
    """Test the kernel's distributional charge against a test function.

    lhs: the kernel integrated against the anisotropic Laplacian of the
    bump over the base with its metric volume; rhs: -2 pi sqrt(det A)
    times the bump integrated over the kernel's closed stratum with its
    cone parametrization.  For a kernel supported away from the bump both
    sides vanish; near the stratum they agree to the quadrature accuracy.

    Built for N = 2, where the kernel is a closed form: each chunk's live
    grid nodes go to the engine in one call.  The grid samples the
    integrable singularity well inside ``alpha_batch``'s resolution floor
    (its nodes come within about 2e-6 of the sheet), so the check calls
    the engine directly.
    """
    N = A.n
    if N != 2:
        raise ValueError("the weak check is built for N = 2")
    i, j = sorted(labels)
    Q, c_eta, _, M, power, pref = _assemble(KernelSpec(A, (i, j)))

    # frame adapted to the singular sheet: first axis crosses it transversally
    if i == 0:
        U = np.eye(N)[:, [j - 1, 2 - j]]   # mu_j first
        special_axis0 = -bump.center[j - 1]  # y offset where mu_j = 0
    else:
        # (mu_1 - mu_2) / sqrt(2) crosses the diagonal sheet, the sum runs along it
        U = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        special_axis0 = (bump.center[j - 1] - bump.center[i - 1]) / math.sqrt(2.0)

    R = bump.r_mu
    axes_nodes, axes_wts = [], []
    for k in range(N):
        sp = special_axis0 if k == 0 else None
        br = _graded_breaks(-R, R, sp)
        nd, wt = panel_nodes(br, 16)
        axes_nodes.append(nd)
        axes_wts.append(wt)
    br_r = np.array([0.0] + [bump.r_eta * 2.0 ** (-m) for m in range(12, -1, -1)])
    r_nodes, r_wts = panel_nodes(br_r, 16)

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
        res = power_kernel_integral(Q, c_eta, mu[live], r[live], M, power,
                                    quad, prefactor=pref)
        evals += res.evals
        lhs += float(np.sum(wts[live] * lap[live] * (pref * res.value)))
    lhs *= 2.0 * math.pi * A.det ** 1.5

    # rhs: bump over the stratum cone, eta = 0
    rhs = -2.0 * math.pi * math.sqrt(A.det) * _cone_integral(bump, M[:, 0])
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return WeakCheckResult(lhs, rhs, abs(lhs - rhs) / denom, evals)


def _cone_integral(bump: RadialBump, m: np.ndarray) -> float:
    """bump(t m, 0) over t >= 0, the stratum cone of a kernel whose one
    cone column is m, on 64 Gauss panels over the bump's exact support:
    the t where |t m - center|^2 < r_mu^2 (32 panels agree to 2e-16)."""
    mm, mc = float(m @ m), float(m @ bump.center)
    disc = mc * mc - mm * (float(bump.center @ bump.center) - bump.r_mu ** 2)
    if disc <= 0.0:
        return 0.0
    lo = max(0.0, (mc - math.sqrt(disc)) / mm)
    hi = (mc + math.sqrt(disc)) / mm
    if hi <= lo:
        return 0.0
    nd, wt = panel_nodes(np.linspace(lo, hi, 65), 16)
    return float(np.sum(wt * bump.value(nd[:, None] * m, np.zeros(len(nd)))))
