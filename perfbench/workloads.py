"""The benchmark's workloads: seeded inputs and the check bundle per point.

A workload is built from a seed alone.  Its constructor draws the forms and
a pool of base points (the set-up phase); ``run_point`` then takes one
point of the pool through the workload's fixed bundle of checks, each held
at the acceptance tolerance of the criterion it replays.  The library only
ever sees the generated forms and points, and the benchmark calls it
through module attributes (``frame.integrability_residual``, not a name
imported into this module), so the traced run can wrap those attributes.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "ghlab" / "__init__.py").is_file():
    raise ImportError(f"no ghlab source tree under {SRC}")
# the benchmark measures the checkout it sits in, never an installed copy
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ghlab import ansatz, frame, geometry, glue, holo, kernels, locus  # noqa: E402
from ghlab.geometry import BasePoint, IndexSet, QuadForm  # noqa: E402
from ghlab.quadrature import (  # noqa: E402
    QuadratureError,
    QuadratureSpec,
    SingularityProximity,
)

# library exceptions a point may raise; the benchmark counts them as failed
# points instead of stopping
POINT_ERRORS = (SingularityProximity, QuadratureError)


def _streams(seed: int, name: str, n: int) -> list[np.random.Generator]:
    """Independent generators per purpose, so pool sizes never move forms."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence([seed, tag]).spawn(n)]


def random_spd(rng: np.random.Generator, n: int, lo: float = 0.5,
               hi: float = 2.5) -> np.ndarray:
    """Random SPD matrix with eigenvalues in [lo, hi], as the acceptance
    suite draws them."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def random_point(rng: np.random.Generator, N: int, mu_scale: float = 2.0,
                 eta_lo: float = 0.3, eta_hi: float = 1.5) -> BasePoint:
    """Base point with mu uniform in a box and |eta| in [eta_lo, eta_hi],
    as the acceptance suite draws them."""
    r = rng.uniform(eta_lo, eta_hi)
    th = rng.uniform(0.0, 2.0 * math.pi)
    return BasePoint(rng.uniform(-mu_scale, mu_scale, N),
                     r * complex(math.cos(th), math.sin(th)))


class CheckLog:
    """Worst value per check against its tolerance, over the points run."""

    def __init__(self) -> None:
        self.worst: dict[str, tuple[float, float]] = {}

    def add(self, name: str, value: float, tol: float) -> bool:
        """Record one residual; a tolerance of 0 means an exact check."""
        old = self.worst.get(name, (-math.inf, tol))[0]
        self.worst[name] = (max(old, value), tol)
        return bool(value <= tol)

    def summary(self) -> dict[str, dict[str, float]]:
        return {name: {"worst": float(v), "tol": t}
                for name, (v, t) in sorted(self.worst.items())}


class Workload:
    """Seeded inputs plus the check bundle one point goes through."""

    name = ""
    # pool entries generated at set-up; the timed phase ends early if a run
    # uses them all up
    pool_size = 0
    # points the traced run reports its per-layer counters over
    traced_points = 1

    def run_point(self, i: int, log: CheckLog) -> bool:
        """Run the bundle on pool entry i; True when every check holds."""
        raise NotImplementedError

    def inputs(self) -> list[np.ndarray]:
        """Every generated number, for reproducibility checks."""
        raise NotImplementedError

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in self.inputs():
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return h.hexdigest()


def _point_array(points: list[BasePoint]) -> np.ndarray:
    return np.array([list(p.mu) + [p.eta.real, p.eta.imag] for p in points])


class FieldN3(Workload):
    """Criteria 12 and 04 at N = 3: one random form and one off-locus point
    per pool entry."""

    name = "field-n3"
    traced_points = 2
    pool_size = 128
    tol = 1e-3
    labels = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def __init__(self, seed: int) -> None:
        rng_form, rng_pts = _streams(seed, self.name, 2)
        self.quad = QuadratureSpec()
        # a fresh form per point: the cost of a point varies by about 10%
        # from form to form, so one form per run would make runs unsteady
        self.forms = [QuadForm(random_spd(rng_form, 3))
                      for _ in range(self.pool_size)]
        self.points = []
        for A in self.forms:
            # criteria 04 and 12 sample points at locus distance above 0.5
            while True:
                p = random_point(rng_pts, 3)
                if locus.dist_locus(A, p) > 0.5:
                    self.points.append(p)
                    break

    def inputs(self) -> list[np.ndarray]:
        return [np.stack([A.entries for A in self.forms]),
                _point_array(self.points)]

    def run_point(self, i: int, log: CheckLog) -> bool:
        A, p = self.forms[i], self.points[i]
        res = frame.integrability_residual(
            ansatz.FirstOrderField(A, self.quad), p)
        ok = log.add("c12_first_identity_rel", res.first_relative, self.tol)
        ok &= log.add("c12_second_identity_rel", res.second_relative, self.tol)

        g = {}
        scale = 0.0
        for labels in self.labels:
            kv = kernels.alpha_grad(kernels.KernelSpec(A, labels), self.quad, p)
            g[labels] = kv.gradient
            scale = max(scale, float(np.max(np.abs(kv.gradient[:3]))))
        worst = abs(g[(1, 2)][2] - g[(1, 3)][1]) / scale
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            lhs, mid = g[(0, a)][b - 1], g[(0, b)][a - 1]
            rhs = -float(np.sum(g[(a, b)][:3]))
            worst = max(worst, abs(lhs - mid) / scale, abs(lhs - rhs) / scale)
        ok &= log.add("c04_gradient_relations_rel", worst, self.tol)
        return ok


class HoloN2(Workload):
    """Criteria 08 and 09 (product identity) at N = 2: one random form and
    one point per pool entry."""

    name = "holo-n2"
    traced_points = 32
    pool_size = 2048
    I1 = IndexSet((0, 1))
    I2 = IndexSet((0, 1, 2))

    def __init__(self, seed: int) -> None:
        rng_form, rng_pts = _streams(seed, self.name, 2)
        self.quad = QuadratureSpec(abs_tol=1e-11)
        # a fresh form per point, as in field-n3
        self.forms = [QuadForm(random_spd(rng_form, 2))
                      for _ in range(self.pool_size)]
        self.points = [random_point(rng_pts, 2) for _ in range(self.pool_size)]

    def inputs(self) -> list[np.ndarray]:
        return [np.stack([A.entries for A in self.forms]),
                _point_array(self.points)]

    def run_point(self, i: int, log: CheckLog) -> bool:
        A, p = self.forms[i], self.points[i]
        gap = holo.gamma_sum_check(holo.GammaSpec(A, self.I1, self.quad), p)
        ok = log.add("c08_one_slot_scaled_gap", gap.scaled_gap, 1e-3)
        gap = holo.gamma_sum_check(holo.GammaSpec(A, self.I2, self.quad), p)
        ok &= log.add("c08_two_slot_scaled_gap", gap.scaled_gap, 1e-2)

        # criterion 09: the one-slot model's exact moduli fix the gauge at
        # the path start, and the product of the moduli at p is exact
        G = geometry.schur_complement(A, self.I1).entries[0, 0]
        D = A.entries[1, 1]
        ref = BasePoint(np.array([2.0 + abs(p.mu[0]), p.mu[1]]), p.eta)
        w0, w1 = holo.taubnut_moduli(G, D, 0.0, ref.mu[0], ref.eta)
        res = holo.log_z(A, self.I1, self.quad, p, basepath=[ref, p],
                         gauge=np.array([math.log(w0), math.log(w1)]))
        got = math.exp(res.values[0] + res.values[1])
        want = math.sqrt(D) * abs(p.eta)
        ok &= log.add("c09_product_identity_rel", abs(got - want) / want, 1e-12)
        return ok


class StrataN4(Workload):
    """Region covering at N = 4 and N = 3, and the criterion 10 plateaus."""

    name = "strata-n4"
    traced_points = 64
    pool_size = 4096

    def __init__(self, seed: int) -> None:
        rng_form, rng_pts, rng_glue = _streams(seed, self.name, 3)
        n = self.pool_size
        self.A4 = QuadForm(random_spd(rng_form, 4))
        # fresh forms are kept as raw matrices: building the QuadForm is
        # part of the point, as it is for a caller with a new form
        self.A3 = np.stack([random_spd(rng_form, 3) for _ in range(n)])
        self.consts = locus.RegionConstants()
        self.pts4 = [self._region_point(rng_pts, 4) for _ in range(n)]
        self.pts3 = [self._region_point(rng_pts, 3) for _ in range(n)]
        self.identity = QuadForm.identity(3)
        self.I012 = IndexSet((0, 1, 2))
        chat = self.consts.chat(self.identity)
        c0 = self.consts.c0
        self.core = [self._plateau_point(rng_glue, 0.05 / (4 * chat * c0),
                                         0.9 / (4 * chat * c0))
                     for _ in range(n)]
        self.outer = [self._plateau_point(rng_glue, 1.0 / (2 * c0), 0.98 / c0)
                      for _ in range(n)]

    @staticmethod
    def _region_point(rng: np.random.Generator, N: int) -> BasePoint:
        # the sampler of the region covering test: log-uniform scale
        scale = 10.0 ** rng.uniform(-1, 3)
        return BasePoint(rng.normal(size=N) * scale,
                         complex(*rng.normal(size=2)) * scale)

    @staticmethod
    def _plateau_point(rng: np.random.Generator, lo: float,
                       hi: float) -> BasePoint:
        # the sampler of criterion 10: hull distance d = nu * U(lo, hi)
        nu = 10.0 ** rng.uniform(5.3, 6.3)
        d = nu * rng.uniform(lo, hi)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        return BasePoint(np.array([d * direction[0], d * direction[1], nu]),
                         complex(d * direction[2], 0.0))

    def inputs(self) -> list[np.ndarray]:
        return [self.A4.entries, self.A3, _point_array(self.pts4),
                _point_array(self.pts3), _point_array(self.core),
                _point_array(self.outer)]

    def run_point(self, i: int, log: CheckLog) -> bool:
        rep = locus.region_membership(self.A4, self.consts, self.pts4[i])
        ok = log.add("n4_uncovered", 0.0 if rep.covered else 1.0, 0.0)
        A3 = QuadForm(self.A3[i])
        rep = locus.region_membership(A3, self.consts, self.pts3[i])
        ok &= log.add("n3_fresh_form_uncovered", 0.0 if rep.covered else 1.0,
                      0.0)
        w = glue.glue_weight(self.identity, self.I012, self.consts,
                             self.core[i])
        ok &= log.add("c10_core_gap", abs(w.value - 1.0), 0.0)
        w = glue.glue_weight(self.identity, self.I012, self.consts,
                             self.outer[i])
        ok &= log.add("c10_outer_gap", abs(w.value), 0.0)
        return ok


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FieldN3, HoloN2, StrataN4)}
