"""Acceptance checks: the samplers and residuals of the CLI's runners.

Samplers draw from a caller's generator in a fixed order, so a seed fixes
every input.  Residuals take already-drawn inputs, read their criterion's
quadrature spec and fixed inputs from the constants here, and return the
worst value.  Criterion numbers refer to the table of CLI runs, seeds and
sample counts in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import ansatz, frame, glue, holo, kernels, locus
from .geometry import (BasePoint, IndexSet, QuadForm, _row, block, laplace_terms, reduction,
                       schur_complement)
from .quadrature import QuadratureSpec


# -- what each verdict is held to ----------------------------------------
# Every criterion's tolerances, quadrature spec and fixed inputs; the CLI's
# runners read them here, and no config can change them.

FLAT_VOLUME_TOL = 1e-9                      # 01
ONE_SLOT_FORM, ONE_SLOT_TOL = 1.3, 1e-10    # 02: the 1 x 1 form's entry, tolerance
RESTRICTED_TOL = 1e-8                       # 03
HARMONIC_TOL = 1e-3                         # 04
WEAK_TOL = 1e-2                             # 05
PROJECTION_TOL, EIGEN_TOL = 1e-10, 1e-12    # 07: nested projections, eigenvalues
PRODUCT_TOL, LOG_SUM_TOL = 1e-12, 1e-6      # 09: moduli product, log sum
PIECE_TOL, SEAM_TOL = 1e-12, 1e-10          # 11: profile pieces, seam jumps
INTEGRABILITY_TOL = 1e-3                    # 12
# 12's Euler rows: roundoff at N = 3; at N = 4 the kernels (p = 4) and the
# cones at p + 2, which enter as p H^2 alpha_(p+2) <= p alpha, are swept
# and held to 1e-8 (QUAD's abs_tol is about that for kernels near 1e-2):
# (1 + p) 1e-8 of a row's scale, times 10 for a two-order estimate
EULER_TOL = {3: 1e-12, 4: 1e-12 + 10 * (1 + 4) * 1e-8}

QUAD = QuadratureSpec()                     # 02, 03, 04 and 12
WEAK_QUAD = QuadratureSpec(abs_tol=1e-8)    # 05
DECAY_QUAD = QuadratureSpec(abs_tol=1e-12)  # 06
GAMMA_QUAD = QuadratureSpec(abs_tol=1e-11)  # 08 and 09

# Criterion 05 at N = 2: the form, and per bump the kernel labels, centre,
# mu radius and eta radius; two bumps sit on axis strata, one on a pair.
WEAK_FORM_N2 = ((1.3, 0.2), (0.2, 0.9))
WEAK_BUMPS_N2 = (
    ((0, 1), (0.0, 2.0), 1.5, 1.2),
    ((0, 2), (2.0, 0.0), 1.5, 1.2),
    ((1, 2), (-3.0, -3.0), 2.0, 1.5),
)

# Criterion 06 at N = 3, on the identity form: one ray per stratum depth,
# with the predicted decay exponent of the volume defect and its window.
DECAY_RAYS_N3 = (
    (ansatz.Ray(np.array([1.0, 0.6, -0.8]), base_mu=np.array([0.0, 0.3, 0.0]),
                base_eta=0.7 + 0.2j, label="generic"), 2.0, 0.2),
    (ansatz.Ray(np.array([-1.0, -1.0, 1.0]) / math.sqrt(3.0),
                base_mu=np.array([2.0, -2.0, 0.0]), base_eta=0.5,
                label="near-pair"), 1.0, 0.2),
    (ansatz.Ray(np.array([-1.0, -1.0, -1.0]) / math.sqrt(3.0),
                base_mu=np.array([3.0, -3.0, 0.5]), base_eta=0.5,
                label="deep"), 0.0, 0.1),
)

# Criterion 08 at N = 2: per case the active slots, the point count and
# the tolerance; each case draws its own form.
GAMMA_CASES_N2 = ((1, 10, 1e-3), (2, 3, 1e-2))

# Criterion 09 at N = 2: the form of the moduli and the log-sum paths.
LOGZ_FORM_N2 = ((1.8, 0.4), (0.4, 1.1))

# Criterion 11: the extension profile's slope K, shoulder M, floor 1000 M
# and eps, and the 20 t on each outer piece at which its formulas are held.
PROFILE = (1.0, 10.0, 1e4, 0.1)
PROFILE_T_LEFT = np.linspace(1.0, PROFILE[1] - 1.0, 20)
PROFILE_T_RIGHT = np.linspace(PROFILE[1] + 1.0, 400.0, 20)


# -- samplers -------------------------------------------------------------

def random_spd(rng: np.random.Generator, n: int, lo: float = 0.5,
               hi: float = 2.5) -> QuadForm:
    """A random rotation of a diagonal form with entries uniform in [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return QuadForm(q @ np.diag(rng.uniform(lo, hi, n)) @ q.T)


def random_point(rng: np.random.Generator, N: int, mu_scale: float = 2.0,
                 eta_lo: float = 0.3, eta_hi: float = 1.5) -> BasePoint:
    """|eta| uniform in [eta_lo, eta_hi], arg eta uniform, then mu uniform
    in the cube of half-width mu_scale, drawn in that order."""
    r = rng.uniform(eta_lo, eta_hi)
    th = rng.uniform(0.0, 2.0 * math.pi)
    return BasePoint(rng.uniform(-mu_scale, mu_scale, N),
                     r * complex(math.cos(th), math.sin(th)))


def off_locus_point(rng: np.random.Generator, A: QuadForm) -> BasePoint:
    """The first of at most 1000 random points farther than 0.5 from the
    locus."""
    for _ in range(1000):
        p = random_point(rng, A.n)
        if locus.dist_locus(A, p) > 0.5:
            return p
    raise RuntimeError("no point farther than 0.5 from the locus in 1000 draws")


def random_subset(rng: np.random.Generator, N: int) -> IndexSet:
    """Label 0 with 1 to N - 1 random labels from 1..N: a proper stratum."""
    size = int(rng.integers(2, N + 1))
    return IndexSet((0,) + tuple(sorted(rng.choice(
        np.arange(1, N + 1), size=size - 1, replace=False).tolist())))


def restricted_cases(rng: np.random.Generator, N: int, n: int) -> list:
    """n draws (A, i, p) for criterion 03, none near the kernel's axis."""
    cases = []
    while len(cases) < n:
        A = random_spd(rng, N)
        i = int(rng.integers(1, N + 1))
        p = random_point(rng, N)
        if not (abs(p.mu[i - 1]) < 0.1 and abs(p.eta) < 0.2):
            cases.append((A, i, p))
    return cases


def nested_cases(rng: np.random.Generator, n: int) -> list:
    """n draws (A, I, p) for criterion 07's nested projections, N in 2..4."""
    cases = []
    for _ in range(n):
        N = int(rng.integers(2, 5))
        A = random_spd(rng, N)
        p = random_point(rng, N, mu_scale=3.0)
        cases.append((A, random_subset(rng, N), p))
    return cases


def eigen_cases(rng: np.random.Generator, n: int, N: int = 4) -> list:
    """n draws (A, I) for criterion 07's eigenvalue interval."""
    return [(random_spd(rng, N, lo=0.4, hi=3.0), random_subset(rng, N))
            for _ in range(n)]


def log_sum_point(rng: np.random.Generator) -> BasePoint:
    """The first of at most 1000 random points at N = 2 whose two
    ``log_sum_path``s keep as far from eta = 0 as ``holo.log_z`` asks."""
    for _ in range(1000):
        p = random_point(rng, 2)
        paths = (log_sum_path(p), log_sum_path(p, detour=True))
        if all(closest >= least for path in paths for closest, least in
               (holo.leg_clearance(a.eta, b.eta) for a, b in zip(path, path[1:]))):
            return p
    raise RuntimeError("no point with log-sum paths clear of eta = 0 in 1000 draws")


def plateau_points(rng: np.random.Generator, A: QuadForm, n: int,
                   kind: str) -> list[BasePoint]:
    """n points about 1e6 out along mu_3 at N = 3 where the glue weight of
    stratum (0, 1, 2) is exactly 1 (``kind="core"``) or 0 (``"outer"``)."""
    consts = locus.RegionConstants()
    chat = consts.chat(A)
    pts = []
    for _ in range(n):
        nu = 10.0 ** rng.uniform(5.3, 6.3)
        if kind == "core":
            d = nu * rng.uniform(0.05, 0.9) / (4.0 * chat * consts.c0)
        else:
            d = nu * rng.uniform(1.0 / (2.0 * consts.c0), 0.98 / consts.c0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        mu = np.array([d * direction[0], d * direction[1], nu])
        pts.append(BasePoint(mu, complex(d * direction[2] / math.sqrt(A.det), 0.0)))
    return pts


# -- residuals ------------------------------------------------------------

def _batch(points) -> tuple[np.ndarray, np.ndarray]:
    """The batch (mu (B, N), eta (B,)) of a list of base points."""
    return np.array([p.mu for p in points]), np.array([p.eta for p in points], dtype=complex)


def flat_volume_gap(points) -> float:
    """Criterion 01: worst |det V - W| of the flat background."""
    worst = 0.0
    for p in points:
        res = ansatz.flat_field(p)
        worst = max(worst, abs(1.0 / float(np.linalg.det(res.V_inv)) - res.W))
    return worst


def one_slot_gaps(points) -> tuple[float, float, float]:
    """Criterion 02 at N = 1 on ``ONE_SLOT_FORM``: worst gaps of the engine
    kernel to its closed form, of det V to W, and of the volume defect to
    0, from one field jet over all the points: at N = 1 its v is the one
    kernel (0, 1)."""
    A = QuadForm(np.array([[ONE_SLOT_FORM]]))
    jet = ansatz.FirstOrderField(A, QUAD).jet(*_batch(points))
    want = np.array([kernels.closed_form_axis(A, 1, p) for p in points])
    kernel = float(np.max(np.abs(jet.v[:, 0, 0] - want)))
    volume = float(np.max(np.abs(np.linalg.det(jet.V) - jet.W)))
    defect = max(abs(ansatz.sigma_expansion(A, v).relative_error) for v in jet.v)
    return kernel, volume, defect


def restricted_gap(cases) -> float:
    """Criterion 03: worst relative gap of the axis kernel of the model of
    {0, i}, the N' = 1 kernel of its reduction at (mu_i, s eta), to its
    closed form, over ``restricted_cases``."""
    worst = 0.0
    for A, i, p in cases:
        red = reduction(A, IndexSet((0, i)))
        got = kernels.alpha_batch(kernels.KernelSpec(red.G, (0, 1)), QUAD,
                                  *red.batch(*_row(A, p))).value[0]
        want = kernels.closed_form_axis(A, i, p)
        worst = max(worst, abs(got - want) / abs(want))
    return worst


def kernel_laplacian(spec: kernels.KernelSpec, points) -> float:
    """Criterion 04: worst A-Laplacian of the kernel over the scale of its
    terms, from its Hessians at every point in one ``alpha_hessian`` call."""
    A = spec.A
    mu, eta = _batch(points)
    *_, hess = kernels.alpha_hessian(A, QUAD, mu, eta, spec.labels)
    mu_terms, eta_part = laplace_terms(A, hess[0])
    scale = np.maximum(np.maximum(np.abs(mu_terms).max(axis=1) * A.n * A.n,
                                  np.abs(eta_part)), 1e-300)
    return float(np.max(np.abs(mu_terms.sum(axis=1) + eta_part) / scale, initial=0.0))


def gradient_relations(A: QuadForm, points) -> tuple[float, float]:
    """Criterion 04: worst gaps, over the largest mu-gradient entry, of the
    pair symmetry d_k alpha_ij = d_j alpha_ik (i, j, k distinct in 1..N)
    and the axis relations d_j alpha_0i = d_i alpha_0j = -sum_t d_t alpha_ij;
    every point and every kernel go into one kernel family batch.  On the
    face route both hold by construction (12's Euler rows read face errors)."""
    N = A.n
    mu, eta = _batch(points)
    labels, kv = kernels.alpha_family(A, QUAD, mu, eta, want_gradient=True)
    grads = {}
    for (i, j), g in zip(labels, kv.gradient):
        grads[i, j] = grads[j, i] = g
    worst_pair = worst_axis = 0.0
    for t in range(len(points)):
        g = {key: rows[t] for key, rows in grads.items()}
        scale = max(float(np.max(np.abs(v[:N]))) for v in g.values())
        for i, j, k in itertools.permutations(range(1, N + 1), 3):
            worst_pair = max(worst_pair, abs(g[i, j][k - 1] - g[i, k][j - 1]) / scale)
        for i, j in itertools.permutations(range(1, N + 1), 2):
            lhs, mid = g[0, i][j - 1], g[0, j][i - 1]
            rhs = -float(np.sum(g[i, j][:N]))
            worst_axis = max(worst_axis, abs(lhs - mid) / scale,
                             abs(lhs - rhs) / scale)
    return worst_pair, worst_axis


def weak_charge_checks() -> list[kernels.WeakCheckResult]:
    """Criterion 05: the weak charge check of each of ``WEAK_BUMPS_N2`` on
    ``WEAK_FORM_N2`` at ``WEAK_QUAD``, in that order."""
    A = QuadForm(np.array(WEAK_FORM_N2))
    return [kernels.weak_distributional_check(
                A, labels, kernels.RadialBump(np.array(center), r_mu, r_eta), WEAK_QUAD)
            for labels, center, r_mu, r_eta in WEAK_BUMPS_N2]


def decay_exponents() -> list[tuple[str, float, float, float, bool]]:
    """Criterion 06 on the identity form at ``DECAY_QUAD``: per ray of
    ``DECAY_RAYS_N3``, (label, measured exponent, predicted exponent,
    window, whether it lies in the window)."""
    A = QuadForm.identity(3)
    out = []
    for ray, want, win in DECAY_RAYS_N3:
        got = ansatz.decay_scan(A, DECAY_QUAD, ray).exponent
        out.append((ray.label, got, want, win, abs(got - want) <= win))
    return out


def gamma_sum_gaps(rng: np.random.Generator) -> list[float]:
    """Criterion 08: per case of ``GAMMA_CASES_N2``, on a form and points
    drawn in that order, the worst scaled gap |sum_i gamma_i - 1/eta| |eta|."""
    gaps = []
    for n_act, n_pts, _ in GAMMA_CASES_N2:
        spec = holo.GammaSpec(random_spd(rng, 2), IndexSet(range(n_act + 1)), GAMMA_QUAD)
        gaps.append(max(holo.gamma_sum_check(spec, random_point(rng, 2)).scaled_gap
                        for _ in range(n_pts)))
    return gaps


def nested_projection_gap(cases) -> float:
    """Criterion 07: worst gap of d_J(p)^2 = d_I(p)^2 + d_J(foot_I)^2, J the
    full label set, relative to max(1, d_J^2), over ``nested_cases``."""
    worst = 0.0
    for A, I, p in cases:
        J = IndexSet(range(A.n + 1))
        pr = locus.project(A, I, p)
        dj = locus.project(A, J, p).dist
        djf = locus.project(A, J, pr.foot).dist
        worst = max(worst, abs(dj ** 2 - pr.dist ** 2 - djf ** 2)
                    / max(1.0, dj ** 2))
    return worst


def schur_eigen_violation(cases) -> float:
    """Criterion 07: worst excursion of a Schur complement's spectrum from
    [lam (lam / Lam)^(N - 1), Lam], lam and Lam A's extreme eigenvalues;
    minus the smallest margin when every spectrum stays inside."""
    worst = -math.inf
    for A, I in cases:
        w = np.linalg.eigvalsh(A.entries)
        lam, Lam = w[0], w[-1]
        lo = lam * (lam / Lam) ** (A.n - 1)
        gw = np.linalg.eigvalsh(schur_complement(A, I).entries)
        worst = max(worst, lo - gw[0], gw[-1] - Lam)
    return worst


def product_identity_gap(points) -> float:
    """Criterion 09 on ``LOGZ_FORM_N2``: worst gap |log |z_j| - log |w_j||
    over j = 0, 1 of slot 1's coordinates to the exact one-slot moduli w_j
    at p (D = det of the inactive block), gauged to them at the path start;
    it bounds the gap of the product |z_0 z_1| = sqrt(D) |eta| too."""
    A, I = QuadForm(np.array(LOGZ_FORM_N2)), IndexSet((0, 1))
    G = schur_complement(A, I).entries[0, 0]
    comp = I.active_complement(A.n)
    D = float(np.linalg.det(block(A.entries, comp, comp))) if comp else 1.0
    worst = 0.0
    for p in points:
        ref = BasePoint(np.concatenate(([2.0 + abs(p.mu[0])], p.mu[1:])), p.eta)
        gauge = np.log(holo.taubnut_moduli(G, D, 0.0, ref.mu[0], ref.eta))
        res = holo.log_z(A, I, GAMMA_QUAD, p, basepath=[ref, p], gauge=gauge)
        want = np.log(holo.taubnut_moduli(G, D, 0.0, p.mu[0], p.eta))
        worst = max(worst, float(np.max(np.abs(res.values - want))))
    return worst


def log_sum_path(p: BasePoint, detour: bool = False) -> list[BasePoint]:
    """Criterion 09's path to p: from ref (2.5 beyond |mu|, eta = 1), with
    ``detour`` through one point off the straight line, to p."""
    ref = BasePoint(np.abs(p.mu) + 2.5, 1.0 + 0j)
    return [ref, BasePoint(p.mu + 1.5, p.eta * 1.4 + 0.3), p] if detour else [ref, p]


def log_sum_gap(points, detour: bool = False) -> float:
    """Criterion 09 on ``LOGZ_FORM_N2``, all slots active: worst gap of
    sum_k log |z_k| to log |eta / eta_ref| along ``log_sum_path``."""
    A, I = QuadForm(np.array(LOGZ_FORM_N2)), IndexSet((0, 1, 2))
    worst = 0.0
    for p in points:
        path = log_sum_path(p, detour)
        res = holo.log_z(A, I, GAMMA_QUAD, p, basepath=path)
        want = math.log(abs(p.eta)) - math.log(abs(path[0].eta))
        worst = max(worst, abs(float(np.sum(res.values)) - want))
    return worst


def plateau_gap(A: QuadForm, points, target: float) -> float:
    """Criterion 10: worst |w - target| of stratum (0, 1, 2)'s glue weight, one batch."""
    mu, eta = _batch(points)
    w, _ = glue.glue_weight_batch(A, IndexSet((0, 1, 2)), locus.RegionConstants(), mu, eta)
    return float(np.max(np.abs(w - target), initial=0.0))


def profile_piece_gaps(prof: glue.ExtensionProfile) -> tuple[float, float, float]:
    """Criterion 11: worst gaps of h = K and H = K t at ``PROFILE_T_LEFT``,
    and of h = c / (g log g) and H = K M + c log log g (c = 2 log 2 K,
    g = t - M + 2) at ``PROFILE_T_RIGHT``."""
    K, M, t, u = prof.K, prof.M, PROFILE_T_LEFT, PROFILE_T_RIGHT
    c, g = 2.0 * math.log(2.0) * K, u - M + 2.0
    return (float(max(np.max(np.abs(prof.h(t) - K)), np.max(np.abs(prof.H(t) - K * t)))),
            float(np.max(np.abs(prof.h(u) - c / (g * np.log(g))))),
            float(np.max(np.abs(prof.H(u) - (K * M + c * np.log(np.log(g)))))))


def profile_seam_jump(prof: glue.ExtensionProfile) -> float:
    """Criterion 11: the largest jump of h, H, f, f' and f'' across the
    seams at M - 1 and M + 1, between the floats on either side."""
    jump = 0.0
    for t0 in (prof.M - 1.0, prof.M + 1.0):
        lo, hi = np.nextafter(t0, -np.inf), np.nextafter(t0, np.inf)
        for fn in (prof.h, prof.H, prof.f, prof.f_prime, prof.f_second):
            jump = max(jump, abs(fn(lo) - fn(hi)))
    return jump


def integrability_gap(A: QuadForm, points) -> tuple[float, float, float]:
    """Criterion 12: worst relative residuals of the first-order field's
    first and second integrability identities, every point in one
    ``frame.integrability_batch``, and of its kernels' Euler relation
    x . grad alpha = (d - p) alpha = -alpha, x = ``kernels._x``: the batch's
    gradients (faces, cones at p + 2) against its values (their own power
    on the same nodes), each row over its largest term.  The first identity
    holds by construction; a face, cone or value error fails Euler's."""
    mu, eta = _batch(points)
    res, scale, V, grad = frame.integrability_batch(ansatz.FirstOrderField(A, QUAD), mu, eta)
    terms = grad * kernels._x(mu, eta)
    euler = np.abs(terms.sum(axis=-1) + V) / np.maximum(np.abs(terms).max(axis=-1), np.abs(V))
    worst = np.max(res / np.maximum(scale, 1e-300), axis=1)
    return float(worst[0]), float(worst[1]), float(np.max(euler, initial=0.0))
