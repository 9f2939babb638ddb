"""Independent evaluation routes that the tests hold the library against.

Each route reaches its quantity another way than the library's primary
path: a scrambled-Sobol estimate of the orthant integrals and kernels, a
stratum model's kernels, field and gammas on A's own coordinates (the
library takes them from the reduced form instead), the gammas by
quadrature along their defining ray and in closed form for one active
slot, the explicit swap of label 0, the glue scale rho_IJ of one stratum
pair, the relative volume defect through det(A + v), and a central
difference for derivatives the library takes exactly, over real
coordinate rows (mu, Re eta, Im eta) that ``coordinate_row`` and
``batch_of_rows`` carry to and from the library's batches.  None of
them runs in a verdict, a CLI experiment or the
benchmark, so they live here rather than in ``ghlab``; scipy, which the
Sobol sequence needs, is a test dependency only.
"""

from __future__ import annotations

import math

import numpy as np

import itertools

from ghlab import kernels, locus
from ghlab.geometry import BasePoint, IndexSet, QuadForm, block, check_batch, schur_complement
from ghlab.holo import GammaSpec
from ghlab.kernels import KernelSpec, KernelValue, kernel_prefactor
from ghlab.quadrature import QuadratureSpec, cone_frame, panel_nodes, power_kernel_integral


def qmc_power_kernel_integral(Q: np.ndarray, c_eta: float, b: np.ndarray,
                              eta: complex, M: np.ndarray, power: int,
                              n_pow2: int = 17, replicates: int = 8,
                              seed: int = 20240817) -> tuple[float, float]:
    """Scrambled-Sobol oracle for ``quadrature.power_kernel_integral``.

    Maps the cube radially, r = u_0 / (1 - u_0) and tau = r omega with
    omega on the simplex by stick-breaking, Jacobian
    (1 + r)^2 r^(d-1) prod (1 - u_i)^(d-1-i): the integrand stays bounded
    where p >= d + 1, also where every axis is large together.  Returns the
    mean of the replicate estimates and their standard error; independent
    of the panel engine by construction.
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


def qmc_alpha_oracle(spec: KernelSpec, p: BasePoint, n_pow2: int = 17,
                     replicates: int = 8, seed: int = 20240817
                     ) -> tuple[float, float]:
    """Low-discrepancy estimate of one kernel, for cross-validation."""
    fam = kernels._family(spec.A, spec.labels)
    mean, se = qmc_power_kernel_integral(fam.Q, fam.c_eta, p.mu, p.eta, fam.M[0],
                                         fam.power, n_pow2=n_pow2,
                                         replicates=replicates, seed=seed)
    return fam.prefactor * mean, fam.prefactor * se


# -- a stratum model on A's own coordinates --------------------------------
# The model of a subset I takes every kernel whose labels lie in I, as an
# integral over I's slots with the Schur complement G of A for Q and det A
# for the fiber weight, the cone matrices laid out on I's labels, and the
# inactive slots of every gradient exact zeros.  The library evaluates the
# same kernels as those of G itself at (mu_I, s eta); this route never
# forms s.  Each call makes one engine call, at the floor of A's N.

def _restricted_layout(I: IndexSet, rays: dict | None = None) -> tuple:
    """(pairs, M) of I's kernels, or with ``rays`` {gamma label: ray
    column} the kernels of each gamma in turn, its ray as a last column."""
    S = I.active

    def cone(i, j):
        return [[-1.0] * bool(i) + [float(r == c) for c in S if c not in (i, j)] for r in S]

    if rays is None:
        pairs = list(itertools.combinations(I.members, 2))
        return pairs, np.array([cone(*ij) for ij in pairs]).reshape(len(pairs), len(S), -1)
    pairs, M = [], []
    for g, ray in rays.items():
        ks = ([(0, k) for k in S] if g == 0
              else [(0, g)] + [(min(g, k), max(g, k)) for k in S if k != g])
        pairs += ks
        M += [np.column_stack([np.array(cone(*ij)).reshape(len(S), -1), ray]) for ij in ks]
    return pairs, np.array(M)


def _restricted_engine(A: QuadForm, I: IndexSet, quad: QuadratureSpec, mu, eta, M,
                       power: int, pref: float, powers: int, tol_scale: float = 1.0):
    G = schur_complement(A, I)
    slots = [a - 1 for a in I.active]
    return power_kernel_integral(G.entries, A.det, np.ascontiguousarray(mu[:, slots]), eta,
                                 M, power, quad, powers, pref * tol_scale,
                                 10.0 * quad.abs_tol ** (1.0 / A.n), cone_frame(G.entries, M))


def restricted_kernels(A: QuadForm, I: IndexSet, quad: QuadratureSpec, mu: np.ndarray,
                       eta: np.ndarray) -> tuple[list[tuple[int, int]], KernelValue]:
    """The labels of I's model kernels and their values and error
    estimates (K, B) at the batch mu (B, N), eta (B,)."""
    mu, eta = check_batch(mu, eta, A.n)
    n = len(I.active)
    pairs, M = _restricted_layout(I)
    pref = kernel_prefactor(n, schur_complement(A, I).det)
    raw = _restricted_engine(A, I, quad, mu, eta, M, n, pref, 1)
    return pairs, KernelValue(pref * raw.value, pref * raw.error, raw.evals)


def restricted_jet(A: QuadForm, I: IndexSet, quad: QuadratureSpec, mu: np.ndarray,
                   eta: np.ndarray) -> np.ndarray:
    """v (B, N, N) of I's model field: each kernel (i, j) times
    (e_i - e_j)(e_i - e_j)^T, e_0 = 0, summed."""
    pairs, kv = restricted_kernels(A, I, quad, mu, eta)
    E = np.vstack([np.zeros(A.n), np.eye(A.n)])
    outers = np.array([np.outer(E[i] - E[j], E[i] - E[j]) for i, j in pairs])
    return np.einsum("kb,kij->bij", kv.value, outers)


def restricted_gammas(spec: GammaSpec, labels: tuple[int, ...], mu: np.ndarray,
                      eta: np.ndarray) -> KernelValue:
    """gamma_i for each i of ``labels``, values and error estimates
    (L, B), at a batch whose rows all have eta != 0: each gamma's n
    kernels of power n + 2, their ray as a last cone column, prefactor
    n det A kernel_prefactor(n, det G), summed and times conj(eta)."""
    A, I, quad = spec.A, spec.I, spec.quad
    mu, eta = check_batch(mu, eta, A.n)
    n = len(I.active)
    rays = {i: np.ones(n) if i == 0 else -np.eye(n)[I.active.index(i)] for i in labels}
    _, M = _restricted_layout(I, rays)
    pref = kernel_prefactor(n, schur_complement(A, I).det) * n * A.det
    size = np.abs(eta)
    raw = _restricted_engine(A, I, quad, mu, eta, M, n + 2, pref, 1, float(size.max()))
    total = (pref * raw.value).reshape(len(labels), n, -1).sum(axis=1)
    err = (pref * raw.error).reshape(len(labels), n, -1).sum(axis=1)
    return KernelValue(total * np.conj(eta), err * size, raw.evals)


def gamma_via_ray(spec: GammaSpec, i: int, p: BasePoint) -> complex:
    """gamma_i by truncated ray quadrature with tail extrapolation.

    Integrates the eta-derivatives of the model's kernels along the
    defining ray out to 2T, T = 2048, on 16-node Gauss panels, and removes
    the leading 1/T tail by the two-point extrapolation 2 G(2T) - G(T).
    ``holo.gamma_family``, the primary path, folds the ray into the
    kernels' cones instead.
    """
    if p.eta == 0:
        return 0j
    act = spec.I.active
    pairs = ([(0, k) for k in act] if i == 0
             else [(0, i)] + [(min(i, k), max(i, k)) for k in act if k != i])
    step_mu = np.zeros(p.N)
    step_mu[[lab - 1 for lab in act]] = -1.0 if i == 0 else np.eye(len(act))[act.index(i)]
    T = 2048.0
    s0 = max(1.0, float(np.max(np.abs(p.mu))))
    pts = {0.0, T, 2.0 * T}
    j = 0
    while s0 * 2.0 ** j < 2.0 * T:
        pts.add(s0 * 2.0 ** j)
        j += 1
    breaks = np.array(sorted(pts))
    nodes, wts = panel_nodes(breaks, 16)
    # every ray node in one kernel batch per kernel
    mu = p.mu + nodes[:, None] * step_mu
    eta = np.full(len(nodes), p.eta)
    vals = np.zeros(len(nodes), dtype=complex)
    # (d/d(Re eta) - i d/d(Im eta)) / 2 of each kernel of power n, taken
    # under the integral sign: -n det A conj(eta) / 2 times its power n + 2
    n = len(act)
    labels, M = _restricted_layout(spec.I)
    pref = kernel_prefactor(n, schur_complement(spec.A, spec.I).det)
    up = _restricted_engine(spec.A, spec.I, spec.quad, mu, eta, M, n, pref, 2).higher[0]
    for pair in pairs:
        vals -= 0.5 * n * spec.A.det * pref * np.conj(eta) * up[labels.index(pair)]
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
    m = p.mu[lab - 1]
    r = math.sqrt(m ** 2 + D * abs(p.eta) ** 2)
    sign = 1.0 if i == 0 else -1.0
    return (1.0 + sign * m / r) / (2.0 * p.eta)


def zero_swap(A: QuadForm, I: IndexSet, p: BasePoint
              ) -> tuple[QuadForm, IndexSet, BasePoint, np.ndarray]:
    """Normalize so the subset contains label 0.

    Returns (A', I', p', S) where S is the involutive matrix with
    mu' = S mu, A' = S^T A S and I' containing 0.  Distances to strata and
    det A are preserved; S is the identity when 0 is already a member.
    """
    I.require_stratum(A.n)
    if p.N != A.n:
        raise ValueError("point dimension does not match the form")
    I2, S = locus._swap_labels(A.n, I)
    A2 = A if I2 is I else QuadForm(S.T @ A.entries @ S)
    return A2, I2, BasePoint(S @ p.mu, p.eta), S


def rho_IJ(A: QuadForm, I: IndexSet, J: IndexSet, p: BasePoint) -> float:
    """Separation scale between a stratum and a deeper one through the foot.

    Requires I a proper subset of J.  Computed from the transverse
    coordinates of the foot on I's hull: the K = J \\ I block of the
    complement form, reduced by the remaining transverse directions,
    evaluated on those coordinates.  Comparable to the foot's distance to
    the deeper stratum within explicit constants.
    """
    if not set(I) < set(J):
        raise ValueError("need I strictly contained in J")
    J.require_stratum(A.n)
    at, i = locus._locate(A, I, p)
    # J's labels in I's frame (0 and I's least member trade), ascending as in comp
    swap = {} if I.contains_zero else {0: I.members[0], I.members[0]: 0}
    K = tuple(sorted(m for m in (swap.get(j, j) for j in J) if m in at.table.comp[i]))
    Ks, rho = locus._rho(A, at, i)
    return float(rho[0, Ks.index(K)])


def sigma_det_route(A: QuadForm, v: np.ndarray) -> tuple[float, float]:
    """The relative volume defect of V = A + v through det V, and
    det V / det A, for ``ansatz.sigma_expansion``'s route through the
    eigenvalues of A^{-1} v.

    With w = det A tr(A^{-1} v) the defect is -(det V - det A - w) / det V,
    and det V / det A = 1 + sum_k sigma_k.
    """
    detV = float(np.linalg.det(A.entries + v))
    w = A.det * float(np.sum(A.inv * v))
    return -(detV - A.det - w) / detV, detV / A.det


def central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    """(f(x + h e_k) - f(x - h e_k)) / (2 h) for each coordinate k of
    x (n,), stacked on a new first axis: f takes the 2 n rows (2 n, n) at
    once to values (2 n, ...).  Its error is h^2 / 6 times a third
    derivative, so it serves as a second-order reference for an exact
    derivative, such as ``kernels.alpha_hessian``'s of the engine's gradient."""
    steps = h * np.eye(len(x))
    values = f(np.concatenate([x + steps, x - steps]))
    return (values[:len(x)] - values[len(x):]) / (2.0 * h)


def coordinate_row(p: BasePoint) -> np.ndarray:
    """The real coordinates (mu_1..mu_N, Re eta, Im eta) of a base point."""
    return np.concatenate([p.mu, [p.eta.real, p.eta.imag]])


def batch_of_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch (mu (B, N), eta (B,)) of real coordinate rows (B, N + 2)."""
    rows = np.asarray(rows, dtype=float)
    return rows[:, :-2], np.ascontiguousarray(rows[:, -2:]).view(complex)[:, 0]
