"""Holomorphic normalization data of the model structures.

Each stratum model carries meromorphic coefficient functions gamma_j, one
per label, tying the fiber coordinate to the model's holomorphic
coordinates.  They are primitives of eta-derivatives of the restricted
kernels along explicit rays; folding the ray parameter into the kernel's
own cone parameters turns each gamma into a single orthant integral of
one higher power.  ``gamma_family`` takes any gammas of a subset, which
differ only in their cone matrices, at a batch mu (B, N), eta (B,) as one
kernel family in one engine call, resolution floor included; ``gamma``
is its one-label, one-row case.  The tests hold the folded gammas against
the ray quadrature they fold away and the one-slot closed form, both in
``tests/oracles.py``.
Their sum telescopes to the reciprocal of the fiber coordinate, and the
induced closed one-forms integrate, along a path the caller gives from a
gauged start (``log_z``), to the logarithms of the model coordinates;
``taubnut_moduli`` gives those of the one-slot model exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import BasePoint, IndexSet, QuadForm, check_batch, schur_complement
from .kernels import KernelValue, _build_family, _engine_batch, _layout, _refusal
from .quadrature import QuadratureError, QuadratureSpec, SingularityProximity, panel_nodes
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


def _gamma_kernels(I: IndexSet, i: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Labels of the kernels entering gamma_i on I, and its active ray column."""
    act = I.active
    if i == 0:
        return [(0, k) for k in act], np.ones(len(act))
    if i not in act:
        raise ValueError("label outside the subset")
    return ([(0, i)] + [(min(i, k), max(i, k)) for k in act if k != i],
            np.where(np.array(act) == i, -1.0, 0.0))


@lru_cache(maxsize=64)
def _gamma_layout(N: int, I: IndexSet, labels: tuple[int, ...]) -> tuple:
    """``kernels._layout`` of I's kernels in the gammas ``labels``, gamma by
    gamma, each cone matrix with its gamma's ray as its last column."""
    slots, family, M = _layout(N, I)
    pairs, cols = zip(*(_gamma_kernels(I, i) for i in labels))
    pairs = tuple(pq for ps in pairs for pq in ps)
    M = np.concatenate([M[[family.index(pq) for pq in pairs]],
                        np.repeat(cols, len(slots), axis=0)[:, :, None]], axis=2)
    M.flags.writeable = False
    return slots, pairs, M


def gamma_family(spec: GammaSpec, labels: tuple[int, ...], mu: np.ndarray,
                 eta: np.ndarray) -> KernelValue:
    """gamma_i for each i of ``labels`` at the batch mu (B, N), eta (B,):
    complex values and error estimates (L, B), all kernels in one
    ``kernels._engine_batch`` family, each gamma summed over its own n.

    Swapping the ray parameter into the cone makes the primitive of the
    eta-derivative an orthant integral of power n + 2 with the ray as one
    more cone column, so two slots are exact and three sweep one axis.
    The engine's refusals name gamma_i, the kernel and the row; rows with
    eta = 0 are 0 and cost no engine call, and so does an empty ``labels``.
    """
    mu, eta = check_batch(mu, eta, spec.A.n)
    out = KernelValue(np.zeros((len(labels), len(eta)), dtype=complex),
                      np.zeros((len(labels), len(eta))), 0)
    live = np.flatnonzero(eta)
    if not len(live) or not len(labels):
        return out
    n = len(spec.I.active)   # kernels per gamma, each with the gamma's ray
    # per call only the cone frame is built: kept per form, it would cost ~1 KB
    fam = _build_family(spec.A, spec.I, _gamma_layout(spec.A.n, spec.I, tuple(labels)))
    # a row's tolerance scales with its |eta|; the largest is strictest
    size = np.abs(eta[live])
    try:
        raw = _engine_batch(fam, mu[live], eta[live], spec.quad, tol_scale=float(size.max()))
    except (SingularityProximity, QuadratureError) as exc:
        # the engine counts the live rows only; name the row in the caller's batch
        exc = _refusal(type(exc), fam, exc.kernel, mu, eta, int(live[exc.row]), exc.what)
        raise type(exc)(f"gamma_{labels[exc.kernel // n]} on {spec.I.members}: {exc}") from None
    total = (fam.prefactor * raw.value).reshape(len(labels), n, -1).sum(axis=1)
    err = (fam.prefactor * raw.error).reshape(len(labels), n, -1).sum(axis=1)
    out.value[:, live], out.error[:, live] = total * np.conj(eta[live]), err * size
    out.evals = raw.evals
    return out


def gamma(spec: GammaSpec, i: int, p: BasePoint) -> complex:
    """gamma_i at a base point: ``gamma_family`` for one label and one row."""
    return complex(gamma_family(spec, (i,), p.mu[None], np.array([p.eta])).value[0, 0])


@dataclass
class GammaSumResult:
    scaled_gap: float    # |sum - 1/eta| * |eta|, dimensionless


def gamma_sum_check(spec: GammaSpec, p: BasePoint) -> GammaSumResult:
    """The gammas over all labels of the subset, one family, sum to 1/eta."""
    gam = gamma_family(spec, (0,) + spec.I.active, p.mu[None], np.array([p.eta]))
    total = sum(gam.value[:, 0].tolist())
    return GammaSumResult(abs(total - 1.0 / p.eta) * abs(p.eta))


# ---------------------------------------------------------------------------
# model coordinate logarithms


@dataclass
class LogZResult:
    """log moduli of the model coordinates, labels in subset order."""

    labels: tuple[int, ...]
    values: np.ndarray


def _one_form(A: QuadForm, I: IndexSet, quad: QuadratureSpec, mu: np.ndarray,
              eta: np.ndarray, need_gamma: bool, G: QuadForm
              ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of d log|z_j| at every node (mu, eta) of a leg: mu rows
    (B, n+1, n) from one restricted field jet, and gammas (B, n+1) from one
    gamma family call."""
    from .ansatz import RestrictedField

    act = I.active
    n = len(act)
    v = RestrictedField(A, I, quad).jet(mu, eta, want_gradient=False).v
    idx = [a - 1 for a in act]
    P = G.entries + v[:, idx][:, :, idx]
    rows = np.empty((len(mu), n + 1, n))
    rows[:, 1:, :] = P
    rows[:, 0, :] = -P.sum(axis=1)
    if not need_gamma:
        return rows, np.zeros((len(mu), n + 1), dtype=complex)
    return rows, gamma_family(GammaSpec(A, I, quad), (0,) + act, mu, eta).value.T


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
          basepath: list[BasePoint], gauge: np.ndarray | None = None) -> LogZResult:
    """Integrate the model's closed log-derivative one-form to p.

    The one-form for label j has mu-part given by the reduced form plus
    the restricted perturbation (row sums negated for label 0) and eta-part
    Re(gamma_j d eta).  The path is piecewise linear through ``basepath``
    and on to p; ``gauge`` fixes the log moduli at the path start.  Each
    leg takes 8 Gauss panels of 16 nodes, laid out as arrays (mu, eta), and
    all its nodes go through one restricted field jet call and, where eta
    moves, one ``gamma_family`` call.  Every path node must keep eta nonzero,
    and a leg on which eta moves is refused with ValueError where it
    passes closer to eta = 0 than half its panels' eta-length: the gammas
    carry 1/eta, which the panels would smear there.
    """
    if not I.contains_zero:
        raise ValueError("model coordinates need a subset containing 0")
    I.require_stratum(A.n)
    act = I.active
    n = len(act)
    if np.max(np.abs(basepath[-1].as_vector() - p.as_vector())) > 0:
        basepath = basepath + [p]
    vals = np.zeros(n + 1) if gauge is None else np.asarray(gauge, dtype=float).copy()
    if vals.shape != (n + 1,):
        raise ValueError("gauge must give one value per subset label")
    G = schur_complement(A, I)
    for q0, q1 in zip(basepath, basepath[1:]):
        d_mu_full = q1.mu - q0.mu
        d_mu = d_mu_full[[a - 1 for a in act]]
        d_eta = q1.eta - q0.eta
        closest, least = leg_clearance(q0.eta, q1.eta)
        if closest < least:
            raise ValueError(f"path leg from eta = {q0.eta} to {q1.eta} passes within "
                             f"{closest:.3e} of eta = 0, within half its panels' "
                             f"eta-length ({least:.3e})")
        mu = q0.mu + _LEG_NODES[:, None] * d_mu_full
        eta = q0.eta + _LEG_NODES * d_eta
        if np.any(eta == 0):
            raise ValueError("path crosses eta = 0")
        rows, gam = _one_form(A, I, quad, mu, eta, d_eta != 0, G)
        steps = np.stack([rows @ d_mu, (gam * d_eta).real], axis=1)
        # added node by node in path order (accumulate is a running sum): a
        # pairwise sum would make a leg's value depend on its batching
        steps = (_LEG_WEIGHTS[:, None, None] * steps).reshape(-1, n + 1)
        vals = np.add.accumulate(np.vstack([vals, steps]))[-1]
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
