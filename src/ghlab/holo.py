"""Holomorphic normalization data of the model structures.

Each stratum model carries meromorphic coefficient functions gamma_j, one
per label, tying the fiber coordinate to the model's holomorphic
coordinates.  They are primitives of eta-derivatives of the model's
kernels along explicit rays; folding the ray parameter into the kernel's
own cone parameters turns each gamma into a single orthant integral of
one higher power.  A subset I's gammas are s times those of its reduced
form G (``geometry.reduction``) over all of G's labels at (mu_I, s eta).
``gamma_family`` takes any gammas of a subset, which differ only in their
cone matrices, at a batch mu (B, N), eta (B,) as one kernel family of G
in one engine call, resolution floor included; ``gamma`` is its
one-label, one-row case.  The tests hold the folded gammas against
the ray quadrature they fold away and the one-slot closed form, both in
``tests/oracles.py``.
Their sum telescopes to the reciprocal of the fiber coordinate, and the
induced closed one-forms integrate, along a path the caller gives from a
gauged start (``log_z``: per leg G's first-order v, and the gammas where
eta moves), to the logarithms of the model coordinates; ``taubnut_moduli``
gives those of the one-slot model exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ansatz import _first_order_v
from .geometry import BasePoint, IndexSet, QuadForm, _finite, _row, check_batch, reduction
from .kernels import KernelValue, _build_family, _engine_batch, _layout, _refusal
from .quadrature import QuadratureError, QuadratureSpec, SingularityProximity, panel_nodes
from .geometry import schur_complement  # noqa: F401  perfbench/tracing.py patches it here
from .kernels import alpha_grad  # noqa: F401  perfbench/tracing.py patches it here
from .quadrature import power_kernel_integral  # noqa: F401  perfbench/tracing.py patches it here


@dataclass(frozen=True)
class GammaSpec:
    """Model-space selection for the gamma family: a form, a stratum
    subset containing 0, and the quadrature."""

    A: QuadForm
    I: IndexSet
    quad: QuadratureSpec

    def __post_init__(self) -> None:
        self.I.require_stratum(self.A.n)
        if not self.I.contains_zero:
            raise ValueError("gamma subsets must contain 0")


@lru_cache(maxsize=64)
def _gamma_layout(N: int, labels: tuple[int, ...]) -> tuple:
    """``kernels._layout`` of the kernels in the gammas ``labels`` on
    {0..N}, gamma by gamma: gamma_0's are (0, k) for every k, with the ray
    (1, ..., 1), and gamma_i's (0, i) and (i, k) for k != i, with the ray
    -e_i, each cone matrix with its gamma's ray as its last column."""
    family, M, _ = _layout(N, 2)
    S = range(1, N + 1)
    pairs = tuple(pq for i in labels for pq in ([(0, k) for k in S] if i == 0 else
                  [(0, i)] + [(min(i, k), max(i, k)) for k in S if k != i]))
    rays = [np.ones(N) if i == 0 else -np.eye(N)[i - 1] for i in labels]
    M = np.concatenate([M[[family.index(pq) for pq in pairs]],
                        np.repeat(rays, N, axis=0)[:, :, None]], axis=2)
    M.flags.writeable = False
    return pairs, M


def gamma_family(spec: GammaSpec, labels: tuple[int, ...], mu: np.ndarray,
                 eta: np.ndarray) -> KernelValue:
    """gamma_i for each i of ``labels`` at the batch mu (B, N), eta (B,):
    complex values and error estimates (L, B), s times the gammas of I's
    reduction G at (mu_I, s eta), all G's kernels in one
    ``kernels._engine_batch`` family, each gamma summed over its own n.

    Swapping the ray parameter into the cone makes the primitive of the
    eta-derivative an orthant integral of power n + 2 with the ray as one
    more cone column, so two slots are exact and three sweep one axis.
    The tolerance holds the returned gammas.  Refusals name gamma_i and
    the kernel by I's labels and the row of the caller's batch, and keep
    the kernel's index, that row and ``what`` as ``kernels`` does; rows with
    eta = 0 are 0 and cost no engine call, and so does an empty ``labels``.
    Labels are integers, held as ``kernels.KernelSpec`` holds its pair.
    """
    return _gamma_family(spec, labels, *check_batch(mu, eta, spec.A.n))


def _gamma_family(spec: GammaSpec, labels: tuple[int, ...], mu: np.ndarray,
                  eta: np.ndarray) -> KernelValue:
    """``gamma_family`` on rows already held finite."""
    members = spec.I.members
    labels = tuple(map(operator.index, labels))
    if not set(labels) <= set(members):
        raise ValueError("label outside the subset")
    L, B = len(labels), len(eta)
    live = eta.nonzero()[0]
    if not len(live) or not L:
        return KernelValue(np.zeros((L, B), dtype=complex), np.zeros((L, B)), 0)
    red = reduction(spec.A, spec.I)
    n = red.G.n   # kernels per gamma, each with the gamma's ray
    # per call only the cone frame is built: kept per form, it would cost ~1 KB
    fam = _build_family(red.G, _gamma_layout(n, tuple(map(members.index, labels))))
    # the engine takes the live rows; the outputs are built from its rows
    # directly, and scattered only into a batch that has rows at eta = 0
    whole = len(live) == B
    mu_G, eta_G = red.batch(mu, eta) if whole else red.batch(mu[live], eta[live])
    # a row's tolerance scales with its |eta|; the largest is strictest
    size = np.abs(eta_G)
    try:
        raw = _engine_batch(fam, mu_G, eta_G, spec.quad, tol_scale=red.s * float(size.max()))
    except (SingularityProximity, QuadratureError) as exc:
        # the engine counts the live rows only; name the row in the caller's batch
        k = exc.kernel
        exc = _refusal(type(exc), tuple(members[m] for m in fam.labels[k]), k, mu, eta,
                       int(live[exc.row]), exc.what)
        exc.args = (f"gamma_{labels[k // n]} on {members}: {exc}",)
        raise exc from None
    value = red.s * (fam.prefactor * raw.value).reshape(L, n, -1).sum(axis=1) * np.conj(eta_G)
    # a closed form (d <= 2) errs by 0; only a sweep's errors are summed
    error = (red.s * (fam.prefactor * raw.error).reshape(L, n, -1).sum(axis=1) * size
             if fam.M.shape[2] > 2 else np.zeros(value.shape))
    if whole:
        return KernelValue(value, error, raw.evals)
    out = KernelValue(np.zeros((L, B), dtype=complex), np.zeros((L, B)), raw.evals)
    out.value[:, live], out.error[:, live] = value, error
    return out


def gamma(spec: GammaSpec, i: int, p: BasePoint) -> complex:
    """gamma_i at a base point: ``gamma_family`` for one label and one row."""
    return complex(_gamma_family(spec, (i,), *_row(spec.A, p)).value[0, 0])


@dataclass
class GammaSumResult:
    scaled_gap: float    # |sum - 1/eta| * |eta|, dimensionless


def gamma_sum_check(spec: GammaSpec, p: BasePoint) -> GammaSumResult:
    """The gammas over all labels of the subset, one family, sum to 1/eta;
    a point at eta = 0, where that sum is not defined, is refused by name."""
    if p.eta == 0:
        raise ValueError(f"gamma sum at mu = {p.mu.tolist()}, eta = 0: the rule 1/eta "
                         "is not defined there")
    gam = _gamma_family(spec, (0,) + spec.I.active, *_row(spec.A, p))
    total = sum(gam.value[:, 0].tolist())
    return GammaSumResult(abs(total - 1.0 / p.eta) * abs(p.eta))


# ---------------------------------------------------------------------------
# model coordinate logarithms


@dataclass
class LogZResult:
    """log moduli of the model coordinates, labels in subset order."""

    labels: tuple[int, ...]
    values: np.ndarray


# path parameters in [0, 1] and weights of one log_z leg
_LEG_PANELS = 8
_LEG_NODES, _LEG_WEIGHTS = panel_nodes(np.arange(_LEG_PANELS + 1) / _LEG_PANELS, 16)


def leg_clearance(eta0: complex, eta1: complex) -> tuple[float, float]:
    """How close a straight leg from eta0 to eta1 passes to eta = 0, and the
    least distance ``log_z`` accepts there: half its panels' eta-length."""
    d = eta1 - eta0
    t = min(max(-(eta0 * d.conjugate()).real / max(abs(d) ** 2, 1e-300), 0.0), 1.0)
    return abs(eta0 + t * d), 0.5 * abs(d) / _LEG_PANELS


def log_z(A: QuadForm, I: IndexSet, quad: QuadratureSpec, p: BasePoint,
          basepath: Sequence[BasePoint], gauge: np.ndarray | None = None) -> LogZResult:
    """Integrate the model's closed log-derivative one-form to p.

    The one-form for label j has mu-part given by the reduced form G plus
    its first-order perturbation (row sums negated for label 0) and
    eta-part Re(gamma_j d eta).  The path is piecewise linear through
    ``basepath`` and on to p; a finite ``gauge`` fixes the log moduli at the path
    start, and ``basepath`` may be any sequence of points.  Each leg takes 8
    Gauss panels of 16 nodes, laid out as arrays (mu, eta), and all its
    nodes go through one engine call for G's first-order v and, where eta
    moves, one ``gamma_family`` call.  Every path node must keep eta nonzero,
    and a leg on which eta moves is refused with ValueError where it
    passes closer to eta = 0 than half its panels' eta-length: the gammas
    carry 1/eta, which the panels would smear there.
    """
    path = [*basepath, p]
    if len(path) < 2:
        raise ValueError("basepath is empty: the path needs a start point")
    if any(q.N != A.n for q in path):
        raise ValueError("dimension mismatch between form and point")
    spec = GammaSpec(A, I, quad)   # the model coordinates need a subset containing 0
    red, act = reduction(A, I), I.active
    n = len(act)
    if path[-2] == p:
        path.pop()
    vals = np.zeros(n + 1) if gauge is None else np.asarray(gauge, dtype=float).copy()
    if vals.shape != (n + 1,):
        raise ValueError("gauge must give one value per subset label")
    if not _finite(vals):
        raise ValueError(f"gauge must be finite, not {vals.tolist()}")
    for q0, q1 in zip(path, path[1:]):
        d_mu_full = q1.mu - q0.mu
        d_mu = d_mu_full[red.slots]
        d_eta = q1.eta - q0.eta
        closest, least = leg_clearance(q0.eta, q1.eta)
        if closest < least:
            raise ValueError(f"path leg from eta = {q0.eta} to {q1.eta} passes within "
                             f"{closest:.3e} of eta = 0, within half its panels' "
                             f"eta-length ({least:.3e})")
        mu = q0.mu + _LEG_NODES[:, None] * d_mu_full
        eta = q0.eta + _LEG_NODES * d_eta
        if np.count_nonzero(eta) < len(eta):
            raise ValueError("path crosses eta = 0")
        # the mu rows (B, n+1, n) of d log|z_j| at every node: G + v, with
        # the row sums negated for label 0
        P = red.G.entries + _first_order_v(red.G, quad, *red.batch(mu, eta))[0]
        rows = np.empty((len(mu), n + 1, n))
        rows[:, 1:, :] = P
        rows[:, 0, :] = -P.sum(axis=1)
        # after vals, each node's mu step, then its eta step (0.0 where eta
        # is fixed), added in path order (accumulate is a running sum): a
        # pairwise sum would make a leg's value depend on its batching
        steps = np.zeros((2 * len(mu) + 1, n + 1))
        steps[0] = vals
        steps[1::2] = _LEG_WEIGHTS[:, None] * (rows @ d_mu)
        if d_eta != 0:
            gam = gamma_family(spec, spec.I.members, mu, eta).value.T
            steps[2::2] = _LEG_WEIGHTS[:, None] * (gam * d_eta).real
        vals = np.add.accumulate(steps, out=steps)[-1]
    return LogZResult((0,) + act, vals)


def taubnut_moduli(G: float, D: float, gauge_c: float, mu: float,
                   eta: complex) -> tuple[float, float]:
    """Exact moduli of the two model coordinates of a one-slot model.

    |w_0|^2 = exp(-C - 2 G mu) (r - mu), |w_1|^2 = exp(C + 2 G mu) (r + mu)
    with r = sqrt(mu^2 + D |eta|^2); their product's modulus is
    sqrt(D) |eta| independent of the gauge.
    """
    e2 = D * abs(eta) ** 2
    r = math.hypot(mu, math.sqrt(e2))
    # evaluate the smaller factor as e2 over the larger: no cancellation,
    # and the product (r - mu)(r + mu) = e2 is then exact
    if mu >= 0.0:
        r_plus = r + mu
        r_minus = e2 / r_plus if r_plus > 0.0 else 0.0
    else:
        r_minus = r - mu
        r_plus = e2 / r_minus
    w0 = math.sqrt(math.exp(-gauge_c - 2.0 * G * mu) * r_minus)
    w1 = math.sqrt(math.exp(gauge_c + 2.0 * G * mu) * r_plus)
    return w0, w1
