"""Green-kernel building blocks of the asymptotic ansatz.

Each kernel is attached to a pair of labels {i, j} from {0, ..., N} and is
a positive function on the base, harmonic for the anisotropic Laplacian
away from the corresponding codimension-three stratum, blowing up like the
reciprocal distance there.  A pair containing the label 0 is an "axis"
kernel, integrating the fundamental solution over the stratum's positive
cone in N-1 parameters; a pair of nonzero labels adds one more parameter
sweeping the diagonal direction.

A stratum model's kernels are those of a lower-N form, its
``geometry.reduction`` G at (mu_I, s eta).

Every kernel value goes through ``alpha_family``: the kernels of a form at
a batch mu (B, N), eta (B,); ``alpha_batch`` is its one-kernel case, and
``alpha_hessian`` gives their second derivatives exactly, from the
family's faces and its cones at two powers higher.  The
kernels differ only in their cone matrix, laid out once per N; Q, the
prefactor and ``quadrature.cone_frame`` are built once per form, and
``_engine_batch`` makes one engine call for the whole family at the
resolution floor 10 abs_tol^(1/N), N the width of its batch, naming the
refused (kernel, row) by its (mu, eta); the gammas of ``ghlab.holo``
share it.  Only the weak charge check calls the engine directly, with no
floor: its polar rule about the sheet, whose measure cancels the
singularity, puts nodes inside that floor.  ``alpha_grad``, one row of the
family with its gradient, remains for the benchmark, which traces it;
``alpha``, its value, also serves criterion 03.  The tests hold these
kernels against closed forms and a scrambled-Sobol estimate,
``tests/oracles.py``'s ``qmc_alpha_oracle``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import BasePoint, IndexSet, QuadForm, _row, ball_volume, block, check_batch
from .geometry import schur_complement  # noqa: F401  perfbench/tracing.py patches it here
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    QuadResult,
    SingularityProximity,
    cone_frame,
    panel_nodes,
    power_kernel_integral,
)

__all__ = [
    "KernelSpec",
    "KernelValue",
    "kernel_prefactor",
    "alpha",
    "alpha_grad",
    "alpha_batch",
    "alpha_family",
    "alpha_hessian",
    "closed_form_axis",
    "RadialBump",
    "WeakCheckResult",
    "weak_distributional_check",
]


def kernel_prefactor(n: int, det_q: float) -> float:
    """Normalization making the kernel's distributional charge 2 pi sqrt(det)."""
    return 2.0 * math.pi * math.sqrt(det_q) / (n * (n + 2) * ball_volume(n + 2))


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: a quadratic form and a label pair, two distinct members
    of {0..N}; a zero member selects the axis family."""

    A: QuadForm
    labels: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.labels) != 2:
            raise ValueError(f"kernel labels {self.labels} are not a pair")
        i, j = sorted(map(operator.index, self.labels))
        object.__setattr__(self, "labels", (i, j))
        if i == j:
            raise ValueError(f"kernel labels {self.labels} must be distinct")
        if not (0 <= i and j <= self.A.n):
            raise ValueError(f"kernel labels {self.labels} out of range 0..{self.A.n}")


@dataclass
class KernelValue:
    """A kernel (or gamma) at one point (floats) or at a batch (arrays, one
    row per point); evals counts the engine's grid nodes."""

    value: float | np.ndarray
    error: float | np.ndarray
    evals: int
    gradient: np.ndarray | None = None   # d/d(mu_1..mu_N, Re eta, Im eta)


@dataclass
class _Family:
    """Engine data of kernels of one form that differ only in their cone
    matrix M (K, N, d)."""

    Q: np.ndarray
    c_eta: float
    labels: tuple[tuple[int, int], ...]
    M: np.ndarray
    power: int
    prefactor: float
    frame: object


def _family(A: QuadForm, labels: tuple[int, int] | None = None) -> _Family:
    """The kernels of A, built once and kept with A, or the one kernel
    ``labels`` sliced from them per call."""
    fam = A.derived("kernels", lambda: _build_family(A, _layout(A.n)))
    if labels is None:
        return fam
    k = fam.labels.index(labels)
    return _Family(fam.Q, fam.c_eta, (labels,), fam.M[k:k + 1], fam.power,
                   fam.prefactor, None if fam.frame is None else fam.frame[k:k + 1])


@lru_cache(maxsize=None)
def _layout(N: int) -> tuple:
    """(pairs, M), read-only, of the kernels on N coordinates: the label
    pairs and their cone matrices (K, N, N - 1)."""
    pairs = tuple(itertools.combinations(range(N + 1), 2))
    # rows of each cone matrix: the diagonal -1 for a pair, then the axes
    # off the kernel's labels
    M = np.array([[[-1.0] * bool(i) + [float(r == c) for c in range(1, N + 1) if c not in (i, j)]
                   for r in range(1, N + 1)] for i, j in pairs]).reshape(len(pairs), N, -1)
    M.flags.writeable = False
    return pairs, M


def _build_family(A: QuadForm, layout: tuple) -> _Family:
    """The kernels of a ``_layout`` as one family of A: per form only Q,
    c_eta, the prefactor and the cone frame.  Cone matrices with a ray
    column (d = N) are gamma kernels: the power rises by 2 and the
    prefactor is the scale N det A prefactor."""
    pairs, M = layout
    n, ray = A.n, M.shape[2] == A.n
    pref = kernel_prefactor(n, A.det) * (n * A.det if ray else 1.0)
    return _Family(A.entries, A.det, pairs, M, n + 2 * ray, pref, cone_frame(A.entries, M))


def _one_row(spec: KernelSpec, quad: QuadratureSpec, p: BasePoint,
             want_gradient: bool) -> KernelValue:
    """The kernel ``spec`` at p, through the family core: a ``BasePoint``
    is finite, so only its dimension is checked."""
    _, kv = _alpha_family(spec.A, quad, *_row(spec.A, p), want_gradient, spec.labels)
    grad = None if kv.gradient is None else kv.gradient[0, 0]
    return KernelValue(float(kv.value[0, 0]), float(kv.error[0, 0]), kv.evals, grad)


def alpha(spec: KernelSpec, quad: QuadratureSpec, p: BasePoint) -> KernelValue:
    """Kernel value at a base point, with an error estimate: the one-row
    case of ``alpha_batch``, which refuses a point within the resolution
    floor of the kernel's sheet with SingularityProximity."""
    return _one_row(spec, quad, p, False)


def alpha_grad(spec: KernelSpec, quad: QuadratureSpec, p: BasePoint) -> KernelValue:
    """Kernel value and gradient (mu slots, Re eta, Im eta), the
    derivatives taken under the integral sign."""
    return _one_row(spec, quad, p, True)


def alpha_batch(spec: KernelSpec, quad: QuadratureSpec, mu: np.ndarray,
                eta: np.ndarray) -> KernelValue:
    """One kernel's values at the batch mu (B, N), eta (B,), the one-kernel
    case of ``alpha_family``: values and prefactor-scaled error estimates
    (B,), and the grid nodes of every call.  A mu of another width than N
    raises ValueError.
    """
    _, kv = alpha_family(spec.A, quad, mu, eta, False, spec.labels)
    return KernelValue(kv.value[0], kv.error[0], kv.evals)


def alpha_family(A: QuadForm, quad: QuadratureSpec, mu: np.ndarray, eta: np.ndarray,
                 want_gradient: bool = False, labels: tuple[int, int] | None = None
                 ) -> tuple[tuple[tuple[int, int], ...], KernelValue]:
    """Every kernel of A (or the one kernel ``labels``) at the batch
    mu (B, N), eta (B,): their labels, and what ``alpha_batch`` returns
    with a leading kernel axis K.  Where they are closed forms (N <= 3)
    the whole family is one engine call."""
    return _alpha_family(A, quad, *check_batch(mu, eta, A.n), want_gradient, labels)


def _alpha_family(A: QuadForm, quad: QuadratureSpec, mu: np.ndarray, eta: np.ndarray,
                  want_gradient: bool, labels: tuple[int, int] | None
                  ) -> tuple[tuple[tuple[int, int], ...], KernelValue]:
    """``alpha_family`` on rows already held finite."""
    fam = _family(A, labels)
    raw = _engine_batch(fam, mu, eta, quad, want_gradient)
    grads = fam.prefactor * raw.gradient if want_gradient else None
    return fam.labels, KernelValue(fam.prefactor * raw.value, fam.prefactor * raw.error,
                                   raw.evals, grads)


def alpha_hessian(A: QuadForm, quad: QuadratureSpec, mu: np.ndarray, eta: np.ndarray,
                  labels: tuple[int, int] | None = None
                  ) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """Every kernel of A (or the one kernel ``labels``) at the batch
    mu (B, N), eta (B,): their labels, gradients (K, B, N + 2) and Hessians
    (K, B, N + 2, N + 2) over x = (mu, Re eta, Im eta), with no difference.
    With Q' = diag(A, det A I_2), M' = (M; 0), G = M^T A M, R = Q' M' G^-1
    and S = Q' - R M'^T Q', a derivative along cone column k integrates to
    the face V^F_k, the cone less that column, so that

        grad V_p = R V^F - p S x V_(p+2),
        hess V_p = R grad V^F - p S V_(p+2) - p S x grad V_(p+2)^T:

    two engine calls, all K d faces at power p (none at N = 1) and the
    cones at p + 2, which share the kernels' sheets and refusals.  Each
    meets ``quad`` in its own prefactor-scaled values, exactly at d <= 2
    (the faces up to N = 4, the cones at p + 2 up to N = 3)."""
    mu, eta = check_batch(mu, eta, A.n)
    fam = _family(A, labels)
    K, N, d = fam.M.shape
    p = fam.power
    # R and -p S from the form alone, prefactor included
    AM = fam.Q @ fam.M
    R = np.zeros((K, N + 2, d))
    R[:, :N] = np.linalg.solve(fam.M.swapaxes(1, 2) @ AM, AM.swapaxes(1, 2)).swapaxes(1, 2)
    S = np.zeros((K, N + 2, N + 2))
    S[:, :N, :N] = (-p * fam.prefactor) * (fam.Q - R[:, :N] @ AM.swapaxes(1, 2))
    S[:, N, N] = S[:, N + 1, N + 1] = -p * fam.prefactor * fam.c_eta
    R *= fam.prefactor
    Sx = (S[:, None] * np.column_stack([mu, eta.real, eta.imag])[:, None]).sum(axis=-1)
    plus = _engine_batch(_Family(fam.Q, fam.c_eta, fam.labels, fam.M, p + 2, fam.prefactor,
                                 fam.frame), mu, eta, quad, True)
    grad = Sx * plus.value[..., None]
    hess = (S[:, None] * plus.value[..., None, None]
            + Sx[..., None] * plus.gradient[..., None, :])
    if d:
        # face j K + k is kernel k less its column j; summed face by face,
        # so a row is the same in any batch
        drop = np.array([[i for i in range(d) if i != j] for j in range(d)], dtype=int)
        MF = fam.M[:, :, drop].transpose(2, 0, 1, 3).reshape(d * K, N, d - 1)
        faces = _engine_batch(_Family(fam.Q, fam.c_eta, fam.labels * d, MF, p, fam.prefactor,
                                      cone_frame(fam.Q, MF)), mu, eta, quad, True)
        for j in range(d):
            grad += R[:, None, :, j] * faces.value[j * K:(j + 1) * K, :, None]
            hess += R[:, None, :, j, None] * faces.gradient[j * K:(j + 1) * K, :, None]
    return fam.labels, grad, hess


def _engine_batch(fam: _Family, mu: np.ndarray, eta: np.ndarray,
                  quad: QuadratureSpec, want_gradient: bool = False,
                  tol_scale: float = 1.0) -> QuadResult:
    """The orthant integrals of a kernel family at rows mu (B, N), eta (B,)
    in one engine call: raw values and error estimates (K, B), gradient
    rows (K, B, N + 2) as (mu..., Re eta, Im eta), and grid nodes;
    ``fam.prefactor * tol_scale`` converts the tolerances of ``quad`` to
    raw units.  A (kernel, row) pair within the resolution floor
    10 abs_tol^(1/N) of its sheet raises SingularityProximity, and a swept
    group that misses its tolerance QuadratureError, naming the kernel and
    the row with its (mu, eta): the row that missed, or for a grid over
    the node budget the first row of its group.
    """
    try:
        return power_kernel_integral(fam.Q, fam.c_eta, np.ascontiguousarray(mu), eta, fam.M,
                                     fam.power, quad, want_gradient, fam.prefactor * tol_scale,
                                     10.0 * quad.abs_tol ** (1.0 / mu.shape[1]), fam.frame)
    except (SingularityProximity, QuadratureError) as exc:
        raise _refusal(type(exc), fam.labels[exc.kernel], exc.kernel, mu, eta, exc.row,
                       exc) from None


def _refusal(kind: type, labels: tuple[int, int], k: int, mu: np.ndarray,
             eta: np.ndarray, row: int, what: object) -> Exception:
    """A ``kind`` error naming kernel k by its ``labels`` and row ``row``,
    both kept, with ``what``, so that a caller can name the row in its own
    batch."""
    exc = kind(f"kernel {labels} at batch row {row} (mu = {mu[row].tolist()}, "
               f"eta = {eta[row]}): {what}", k, row)
    exc.what = what
    return exc


def closed_form_axis(A: QuadForm, i: int, p: BasePoint) -> float:
    """Exact value 1 / (2 sqrt(mu_i^2 + D |eta|^2)) of the axis kernel
    (0, i) of the model of {0, i}, D the determinant of A's block off i (1
    at N = 1), read from A, not through its reduction."""
    if not 1 <= i <= A.n:
        raise ValueError(f"axis label {i} out of range 1..{A.n}")
    if p.N != A.n:
        raise ValueError("dimension mismatch between form and point")
    comp = IndexSet((0, i)).active_complement(A.n)
    D = float(np.linalg.det(block(A.entries, comp, comp)))   # 1 for an empty block
    return 1.0 / (2.0 * math.sqrt(p.mu[i - 1] ** 2 + D * abs(p.eta) ** 2))


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
        inside = s < 1.0
        g = np.where(inside, 1.0 - s, 1.0)
        val = np.where(inside, np.exp(1.0 - 1.0 / g), 0.0)
        d1 = np.where(inside, -val / g ** 2, 0.0)
        d2 = np.where(inside, val / g ** 4 - 2.0 * val / g ** 3, 0.0)
        return val, d1, d2

    def value(self, mu: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The bump at rows mu (B, N) and |eta| = r (B,)."""
        u = np.sum((mu - self.center) ** 2, axis=1) / self.r_mu ** 2
        w = r ** 2 / self.r_eta ** 2
        return self._psi(u)[0] * self._psi(w)[0]

    def laplace_A(self, A: QuadForm, mu: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The bump's anisotropic Laplacian at rows mu (B, N), |eta| = r (B,)."""
        d = mu - self.center
        u = np.sum(d ** 2, axis=1) / self.r_mu ** 2
        w = r ** 2 / self.r_eta ** 2
        pu, pu1, pu2 = self._psi(u)
        pw, pw1, pw2 = self._psi(w)
        quad_inv = ((d @ A.inv) * d).sum(axis=1)
        mu_part = (4.0 / self.r_mu ** 4 * pu2 * quad_inv
                   + 2.0 / self.r_mu ** 2 * pu1 * np.trace(A.inv))
        eta_part = 4.0 / self.r_eta ** 2 * (w * pw2 + pw1) / A.det
        return mu_part * pw + pu * eta_part


@dataclass
class WeakCheckResult:
    lhs: float
    rhs: float
    rel_gap: float
    alpha_evals: int


# the weak check's polar rule: Gauss order, and even panels on the y1 axis,
# on each angular sector and on the radial fraction t
_WEAK_ORDER, _WEAK_Y1_PANELS, _WEAK_THETA_PANELS, _WEAK_T_PANELS = 24, 6, 2, 4


def weak_distributional_check(A: QuadForm, labels: tuple[int, int],
                              bump: RadialBump, quad: QuadratureSpec
                              ) -> WeakCheckResult:
    """Test the kernel's distributional charge against a test function.

    lhs: the kernel integrated against the anisotropic Laplacian of the
    bump over the base with its metric volume; rhs: -2 pi sqrt(det A)
    times the bump integrated over the kernel's closed stratum with its
    cone parametrization.  For a kernel supported away from the bump both
    sides vanish; near the stratum they agree to the quadrature accuracy.

    Built for N = 2, where the kernel is a closed form.  In a frame (y0,
    y1) of the mu plane the sheet is y0 = s at r = |eta| = 0.  At each
    Gauss node y1 the bump's support in (y0, r) is [-a, a] x [0, r_eta],
    taken in polar coordinates about (c, 0), c = clip(s, -a, a):
    r dr dy0 = rho^2 sin(theta) drho dtheta cancels the kernel's 1/rho,
    so no axis is graded.  theta is split at the two corners and
    rho = t rho_max(theta), t on fixed panels over [0, 1].  Each y1 node is
    one engine call, direct: its nodes come within ``alpha_batch``'s
    resolution floor of the sheet.  Where the sheet misses the support at
    a node, c is clipped to an end and the sector on that side is skipped.
    """
    N = A.n
    if N != 2:
        raise ValueError("the weak check is built for N = 2")
    i, j = sorted(labels)
    fam = _family(A, (i, j))

    # frame adapted to the singular sheet: first axis crosses it transversally
    if i == 0:
        U = np.eye(N)[:, [j - 1, 2 - j]]   # mu_j first
        s = -bump.center[j - 1]            # y0 where mu_j = 0
    else:
        # (mu_1 - mu_2) / sqrt(2) crosses the diagonal sheet, the sum runs along it
        U = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        s = (bump.center[j - 1] - bump.center[i - 1]) / math.sqrt(2.0)

    R, h = bump.r_mu, bump.r_eta
    t, wt = panel_nodes(np.linspace(0.0, 1.0, _WEAK_T_PANELS + 1), _WEAK_ORDER)
    lhs, evals = 0.0, 0
    for y1, w1 in zip(*panel_nodes(np.linspace(-R, R, _WEAK_Y1_PANELS + 1), _WEAK_ORDER)):
        a = math.sqrt(R * R - y1 * y1)
        c = min(max(s, -a), a)
        # sectors where rho ends on the right, the top and the left edge;
        # where c is clipped to an end, the sector on that side is empty
        corners = np.array([0.0, math.atan2(h, a - c), math.atan2(h, -a - c), math.pi])
        th, wth = panel_nodes(np.linspace(corners[:-1], corners[1:], _WEAK_THETA_PANELS + 1,
                                          axis=1), _WEAK_ORDER)
        cos, sin = np.cos(th), np.sin(th)
        rho_max = np.stack([(a - c) / cos[0], h / sin[1], -(a + c) / cos[2]])
        keep = np.array([a - c > 0.0, True, a + c > 0.0])
        rho_max, wth = rho_max[keep].reshape(-1, 1), wth[keep]
        cos, sin = cos[keep].reshape(-1, 1), sin[keep].reshape(-1, 1)
        rho = rho_max * t                                               # (theta, t)
        wts = (w1 * wth.ravel()[:, None] * sin * rho_max * wt * rho ** 2).ravel()
        r = (rho * sin).ravel()
        mu = bump.center + np.outer(c + rho * cos, U[:, 0]) + y1 * U[:, 1]
        res = power_kernel_integral(fam.Q, fam.c_eta, mu, r, fam.M, fam.power, quad,
                                    prefactor=fam.prefactor, frame=fam.frame)
        evals += res.evals
        lhs += float(np.sum(wts * bump.laplace_A(A, mu, r) * res.value[0]))
    lhs *= 2.0 * math.pi * A.det ** 1.5 * fam.prefactor

    # rhs: bump over the stratum cone, eta = 0
    rhs = -2.0 * math.pi * math.sqrt(A.det) * _cone_integral(bump, fam.M[0, :, 0])
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
