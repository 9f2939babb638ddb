"""Command line interface: reproducible verification experiments.

Usage: ghlab <experiment> [--config FILE] [--out DIR] [--seed S] [--n N]

Each experiment samples points from a seeded generator, evaluates one of
the library's identities, and writes a CSV of result rows plus a JSON
sidecar with the effective configuration and its hash.  Reruns with the
same configuration are byte-identical except for the sidecar timestamp.
The process exits 0 exactly when every row passes.  GHLAB_THREADS caps
worker threads for the per-point loops; results do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import ansatz, frame, geometry, glue, holo, kernels, locus
from .geometry import BasePoint, IndexSet, QuadForm
from .quadrature import QuadratureSpec

SCHEMA_VERSION = 1

# experiment name -> runner, and the params keys each runner reads; both
# are filled by @_experiment next to the runner
EXPERIMENTS: dict = {}
EXPERIMENT_PARAMS: dict[str, frozenset[str]] = {}
CONFIG_KEYS = frozenset({"schema_version", "seed", "n", "params"})


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 20240817
    n: int | None = None
    params: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def load(cls, experiment: str, path: str | None, seed: int | None,
             n: int | None) -> "ExperimentConfig":
        data: dict = {}
        if path:
            with open(path) as fh:
                data = json.load(fh)
        if data.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise SystemExit(f"unsupported config schema_version in {path}")
        # a misspelt key would otherwise fall back to its default silently
        # while still changing the config hash
        unknown = sorted(set(data) - CONFIG_KEYS)
        if unknown:
            raise SystemExit(f"unknown config key(s) {', '.join(unknown)} in {path}; "
                             f"accepted: {', '.join(sorted(CONFIG_KEYS))}")
        accepted = EXPERIMENT_PARAMS.get(experiment, frozenset())
        unknown = sorted(set(data.get("params", {})) - accepted)
        if unknown:
            raise SystemExit(f"unknown param(s) {', '.join(unknown)} for {experiment} "
                             f"in {path}; accepted: {', '.join(sorted(accepted))}")
        cfg = cls(experiment=experiment,
                  seed=data.get("seed", 20240817),
                  n=data.get("n"),
                  params=data.get("params", {}))
        if seed is not None:
            cfg.seed = seed
        if n is not None:
            cfg.n = n
        return cfg

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


@dataclass
class ResultRow:
    experiment: str
    case: str
    value: float
    target: float
    tol: float
    passed: bool
    config_hash: str
    detail: str = ""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_outputs(cfg: ExperimentConfig, rows: list[ResultRow], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = sorted(rows, key=lambda r: r.case)
    csv_path = out_dir / f"{cfg.experiment}.csv"
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["experiment", "case", "value", "target", "tol",
                     "passed", "config_hash", "detail"])
        for r in rows:
            wr.writerow([r.experiment, r.case, _fmt(r.value), _fmt(r.target),
                         _fmt(r.tol), str(r.passed).lower(), r.config_hash,
                         r.detail])
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "config": json.loads(cfg.canonical()),
        "config_hash": cfg.hash,
        "created_unix": time.time(),
        "n_rows": len(rows),
        "n_passed": int(sum(bool(r.passed) for r in rows)),
        "all_passed": bool(all(r.passed for r in rows)),
    }
    with open(out_dir / f"{cfg.experiment}.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _n_threads() -> int:
    try:
        return max(1, int(os.environ.get("GHLAB_THREADS", "1")))
    except ValueError:
        return 1


def _pmap(fn, items):
    nt = _n_threads()
    if nt == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=nt) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# samplers


def _random_spd(rng: np.random.Generator, N: int, cond_hi: float = 2.0) -> QuadForm:
    q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    lam = rng.uniform(1.0, cond_hi, size=N)
    return QuadForm(q @ np.diag(lam) @ q.T)


def _random_point(rng: np.random.Generator, N: int, mu_scale: float = 2.0,
                  eta_lo: float = 0.5, eta_hi: float = 2.0) -> BasePoint:
    mu = rng.uniform(-mu_scale, mu_scale, size=N)
    r = rng.uniform(eta_lo, eta_hi)
    th = rng.uniform(0.0, 2.0 * math.pi)
    return BasePoint(mu, r * complex(math.cos(th), math.sin(th)))


def _off_locus_point(rng: np.random.Generator, A: QuadForm, floor: float = 0.3,
                     mu_scale: float = 2.0) -> BasePoint:
    for _ in range(1000):
        p = _random_point(rng, A.n, mu_scale=mu_scale)
        if locus.dist_locus(A, p) > floor:
            return p
    raise RuntimeError("could not sample an off-locus point")


# ---------------------------------------------------------------------------
# experiments


def _experiment(name: str, *params: str):
    """Register a runner under ``name`` with the params keys it reads."""
    def register(fn):
        EXPERIMENTS[name] = fn
        EXPERIMENT_PARAMS[name] = frozenset(params)
        return fn
    return register


@_experiment("flat-cy", "dims", "tol")
def run_flat_cy(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    dims = cfg.params.get("dims", [1, 2, 3, 4, 5])
    n = cfg.n or 1000
    tol = cfg.params.get("tol", 1e-9)
    rows = []
    for N in dims:
        worst = 0.0
        for _ in range(n):
            p = _random_point(rng, N)
            res = ansatz.flat_field(None, p)
            worst = max(worst, abs(float(np.linalg.det(res.V_inv)) ** -1 - res.W))
        rows.append(ResultRow(cfg.experiment, f"N={N}", worst, 0.0, tol,
                              worst <= tol, cfg.hash))
    return rows


@_experiment("taubnut-exact", "a", "tol")
def run_taubnut_exact(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 100
    tol = cfg.params.get("tol", 1e-10)
    a = cfg.params.get("a", 1.3)
    A = QuadForm(np.array([[a]]))
    quad = QuadratureSpec()
    fld = ansatz.FirstOrderField(A, quad)
    worst_alpha = worst_cy = 0.0
    for _ in range(n):
        p = _random_point(rng, 1)
        spec = kernels.KernelSpec(A, (0, 1))
        got = kernels.alpha(spec, quad, p).value
        want = kernels.closed_form_axis(A, 1, p)
        worst_alpha = max(worst_alpha, abs(got - want))
        jet = fld.at(p)
        worst_cy = max(worst_cy, abs(float(np.linalg.det(jet.V)) - jet.W))
    return [
        ResultRow(cfg.experiment, "alpha-closed-form", worst_alpha, 0.0, tol,
                  worst_alpha <= tol, cfg.hash),
        ResultRow(cfg.experiment, "cy-identity", worst_cy, 0.0, tol,
                  worst_cy <= tol, cfg.hash),
    ]


@_experiment("kernel-closedform", "dims", "rel_tol")
def run_kernel_closedform(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    dims = cfg.params.get("dims", [2, 3, 4])
    n = cfg.n or 100
    tol = cfg.params.get("rel_tol", 1e-8)
    quad = QuadratureSpec()
    rows = []
    for N in dims:
        worst = 0.0
        for _ in range(n):
            A = _random_spd(rng, N)
            i = int(rng.integers(1, N + 1))
            I = IndexSet((0, i))
            p = _random_point(rng, N)
            if abs(p.mu[i - 1]) < 0.2:
                continue
            spec = kernels.KernelSpec(A, (0, i), restriction=I)
            got = kernels.alpha(spec, quad, p).value
            want = kernels.closed_form_axis(A, i, p, restriction=I)
            worst = max(worst, abs(got - want) / abs(want))
        rows.append(ResultRow(cfg.experiment, f"N={N}", worst, 0.0, tol,
                              worst <= tol, cfg.hash))
    return rows


def _laplace_of_kernel(spec: kernels.KernelSpec, quad: QuadratureSpec,
                       p: BasePoint) -> tuple[float, float]:
    """Anisotropic Laplacian via one differencing level on analytic
    gradients; returns (laplacian, scale of constituents)."""
    A = spec.A
    N = A.n
    h = frame._fd_step(p)
    pts = frame._stencil(p, h, list(range(N + 2)))
    _, grads, _ = kernels.alpha_batch(spec, quad, pts, want_gradient=True)
    hess = np.column_stack([frame._second_from_jets(grads, k, lambda g: g, h)
                            for k in range(N + 2)])
    hess = 0.5 * (hess + hess.T)
    mu_part = float(np.sum(A.inv * hess[:N, :N]))
    eta_part = (hess[N, N] + hess[N + 1, N + 1]) / A.det
    scale = max(float(np.max(np.abs(A.inv * hess[:N, :N]))) * N * N,
                abs(eta_part), 1e-300)
    return mu_part + eta_part, scale


@_experiment("harmonicity", "abs_tol", "dims", "rel_tol")
def run_harmonicity(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    dims = cfg.params.get("dims", [3])
    n = cfg.n or 50
    tol = cfg.params.get("rel_tol", 1e-3)
    rows = []
    for N in dims:
        A = _random_spd(rng, N)
        quad = QuadratureSpec(abs_tol=cfg.params.get("abs_tol", 1e-10))
        pts = [_off_locus_point(rng, A, floor=0.5) for _ in range(n)]
        for kind, labels in (("axis", (0, 1)), ("pair", (1, 2))):
            spec = kernels.KernelSpec(A, labels)

            def one(p):
                lap, scale = _laplace_of_kernel(spec, quad, p)
                return abs(lap) / scale

            rels = _pmap(one, pts)
            worst = max(rels)
            rows.append(ResultRow(cfg.experiment, f"N={N}-{kind}", worst, 0.0,
                                  tol, worst <= tol, cfg.hash))
    return rows


@_experiment("commutativity", "dim", "rel_tol")
def run_commutativity(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    N = cfg.params.get("dim", 3)
    n = cfg.n or 50
    tol = cfg.params.get("rel_tol", 1e-3)
    A = _random_spd(rng, N)
    quad = QuadratureSpec()
    worst_pair = worst_axis = 0.0
    for _ in range(n):
        p = _off_locus_point(rng, A, floor=0.5)
        g = {}
        scale = 0.0
        for i in range(0, N + 1):
            for j in range(i + 1, N + 1):
                kv = kernels.alpha_grad(kernels.KernelSpec(A, (i, j)), quad, p)
                g[(i, j)] = kv.gradient
                scale = max(scale, float(np.max(np.abs(kv.gradient[:N]))))
        # pair family: d alpha_ij / d mu_k symmetric under j <-> k
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                for k in range(1, N + 1):
                    if len({i, j, k}) < 3:
                        continue
                    a = g[(min(i, j), max(i, j))][k - 1]
                    b = g[(min(i, k), max(i, k))][j - 1]
                    worst_pair = max(worst_pair, abs(a - b) / scale)
        # axis family: d alpha_0i / d mu_j = d alpha_0j / d mu_i
        #              = - sum_t d alpha_ij / d mu_t
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if i == j:
                    continue
                lhs = g[(0, i)][j - 1]
                mid = g[(0, j)][i - 1]
                rhs = -float(np.sum(g[(min(i, j), max(i, j))][:N]))
                worst_axis = max(worst_axis, abs(lhs - mid) / scale,
                                 abs(lhs - rhs) / scale)
    return [
        ResultRow(cfg.experiment, "pair-symmetry", worst_pair, 0.0, tol,
                  worst_pair <= tol, cfg.hash),
        ResultRow(cfg.experiment, "axis-relations", worst_axis, 0.0, tol,
                  worst_axis <= tol, cfg.hash),
    ]


@_experiment("weak-chern", "A", "placements", "rel_tol")
def run_weak_chern(cfg: ExperimentConfig) -> list[ResultRow]:
    tol = cfg.params.get("rel_tol", 1e-2)
    a_entries = cfg.params.get("A", [[1.3, 0.2], [0.2, 0.9]])
    A = QuadForm(np.array(a_entries, dtype=float))
    quad = QuadratureSpec(abs_tol=1e-8)
    placements = cfg.params.get("placements", [
        {"labels": [0, 1], "center": [0.0, 2.0], "r_mu": 1.5, "r_eta": 1.2},
        {"labels": [0, 2], "center": [2.0, 0.0], "r_mu": 1.5, "r_eta": 1.2},
        {"labels": [1, 2], "center": [-3.0, -3.0], "r_mu": 2.0, "r_eta": 1.5},
    ])
    rows = []
    for idx, pl in enumerate(placements):
        bump = kernels.RadialBump(np.array(pl["center"], dtype=float),
                                  pl["r_mu"], pl["r_eta"])
        res = kernels.weak_distributional_check(A, tuple(pl["labels"]), bump, quad)
        rows.append(ResultRow(cfg.experiment, f"bump-{idx}-{pl['labels']}",
                              res.rel_gap, 0.0, tol, res.rel_gap <= tol,
                              cfg.hash,
                              detail=f"lhs={res.lhs:.6g} rhs={res.rhs:.6g}"))
    return rows


@_experiment("pythagoras", "tol")
def run_pythagoras(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 500
    tol = cfg.params.get("tol", 1e-10)
    worst = 0.0
    for _ in range(n):
        N = int(rng.integers(2, 5))
        A = _random_spd(rng, N)
        p = _random_point(rng, N, mu_scale=3.0)
        size_i = int(rng.integers(2, N + 1))
        members = (0,) + tuple(sorted(rng.choice(np.arange(1, N + 1),
                                                 size=size_i - 1, replace=False).tolist()))
        I = IndexSet(members)
        extra = [m for m in range(1, N + 1) if m not in members]
        if not extra:
            continue
        add = tuple(sorted(rng.choice(extra, size=int(rng.integers(1, len(extra) + 1)),
                                      replace=False).tolist()))
        J = IndexSet(members + add)
        pr_i = locus.project(A, I, p)
        d_j = locus.project(A, J, p).dist
        d_j_from_foot = locus.project(A, J, pr_i.foot).dist
        gap = abs(d_j ** 2 - pr_i.dist ** 2 - d_j_from_foot ** 2)
        worst = max(worst, gap / max(1.0, d_j ** 2))
    return [ResultRow(cfg.experiment, "nested-hulls", worst, 0.0, tol,
                      worst <= tol, cfg.hash)]


@_experiment("eigen-interval", "dim")
def run_eigen_interval(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 100
    N = cfg.params.get("dim", 4)
    worst_margin = math.inf
    violations = 0
    for _ in range(n):
        A = _random_spd(rng, N, cond_hi=3.0)
        w = np.linalg.eigvalsh(A.entries)
        lam, Lam = w[0], w[-1]
        lo = lam * (lam / Lam) ** (N - 1)
        size = int(rng.integers(2, N + 1))
        members = (0,) + tuple(sorted(rng.choice(np.arange(1, N + 1),
                                                 size=size - 1, replace=False).tolist()))
        I = IndexSet(members)
        if not I.active:
            continue
        G = geometry.schur_complement(A, I)
        gw = np.linalg.eigvalsh(G.entries)
        margin = min(gw[0] - lo, Lam - gw[-1])
        worst_margin = min(worst_margin, margin)
        if margin < -1e-12:
            violations += 1
    return [ResultRow(cfg.experiment, "schur-eigen-interval", float(violations),
                      0.0, 0.0, violations == 0, cfg.hash,
                      detail=f"min margin {worst_margin:.3e}")]


@_experiment("decay-scan", "A", "dim")
def run_decay_scan(cfg: ExperimentConfig) -> list[ResultRow]:
    N = cfg.params.get("dim", 3)
    a_entries = cfg.params.get("A")
    A = QuadForm(np.array(a_entries, dtype=float)) if a_entries else QuadForm.identity(N)
    quad = QuadratureSpec(abs_tol=1e-12)
    rays = [
        (ansatz.Ray(np.array([1.0, 0.6, -0.8]), base_mu=np.array([0.0, 0.3, 0.0]),
                    base_eta=0.7 + 0.2j, label="generic"), 2.0, 0.2),
        (ansatz.Ray(np.array([-1.0, -1.0, 1.0]) / math.sqrt(3.0),
                    base_mu=np.array([2.0, -2.0, 0.0]), base_eta=0.5,
                    label="near-pair"), 1.0, 0.2),
        (ansatz.Ray(np.array([-1.0, -1.0, -1.0]) / math.sqrt(3.0),
                    base_mu=np.array([3.0, -3.0, 0.5]), base_eta=0.5,
                    label="deep"), 0.0, 0.1),
    ]
    rows = []
    for ray, want, win in rays:
        fit = ansatz.decay_scan(A, quad, ray)
        ok = abs(fit.exponent - want) <= win
        rows.append(ResultRow(cfg.experiment, f"ray-{ray.label}", fit.exponent,
                              want, win, ok, cfg.hash))
    return rows


@_experiment("beta-bounds", "C_max", "dims")
def run_beta_bounds(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 40
    bound = cfg.params.get("C_max", 10.0)
    rows = []
    for N in cfg.params.get("dims", [2, 3]):
        A = _random_spd(rng, N)
        quad = QuadratureSpec()
        I = IndexSet((0, 1))
        worst = 0.0
        for _ in range(n):
            p = _off_locus_point(rng, A, floor=0.4, mu_scale=3.0)
            b = locus.dist_boundary(A, I, p)
            val = kernels.beta(A, I, 0, 1, quad, p)
            worst = max(worst, abs(val.value) * min(b, 50.0))
        rows.append(ResultRow(cfg.experiment, f"N={N}-remainder-bound", worst,
                              0.0, bound, worst <= bound, cfg.hash))
    return rows


@_experiment("gamma-sum", "cases")
def run_gamma_sum(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    cases = cfg.params.get("cases", [
        {"N": 2, "n_active": 1, "points": 10, "tol": 1e-3},
        {"N": 2, "n_active": 2, "points": 3, "tol": 1e-2},
    ])
    for case in cases:
        N, n_act = case["N"], case["n_active"]
        A = _random_spd(rng, N)
        quad = QuadratureSpec(abs_tol=1e-11)
        spec = holo.GammaSpec(A, IndexSet(tuple(range(n_act + 1))), quad)
        worst = 0.0
        for _ in range(case["points"]):
            p = _random_point(rng, N, mu_scale=2.0)
            worst = max(worst, holo.gamma_sum_check(spec, p).scaled_gap)
        rows.append(ResultRow(cfg.experiment, f"n={n_act}", worst, 0.0,
                              case["tol"], worst <= case["tol"], cfg.hash))
    return rows


@_experiment("logz-growth", "dim", "points_n1", "points_n2", "tol_product", "tol_sum")
def run_logz_growth(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    N = cfg.params.get("dim", 2)
    A = _random_spd(rng, N)
    quad = QuadratureSpec(abs_tol=1e-11)
    rows = []

    # product identity, one-slot model, anchored to the exact moduli
    I1 = IndexSet((0, 1))
    G = geometry.schur_complement(A, I1).entries[0, 0]
    comp = I1.active_complement(N)
    D = float(np.linalg.det(geometry.block(A.entries, comp, comp))) if comp else 1.0
    worst_prod = 0.0
    for _ in range(cfg.params.get("points_n1", 10)):
        p = _random_point(rng, N)
        ref_mu = p.mu.copy()
        ref_mu[0] = 2.0 + abs(p.mu[0])
        ref = BasePoint(ref_mu, p.eta)
        w0r, w1r = holo.taubnut_moduli(G, D, 0.0, ref.mu[0], ref.eta)
        gauge = np.array([math.log(w0r), math.log(w1r)])
        res = holo.log_z(A, I1, quad, p, basepath=[ref, p], gauge=gauge)
        got = res.values[0] + res.values[1]
        want = math.log(math.sqrt(D) * abs(p.eta))
        worst_prod = max(worst_prod, abs(got - want))
    tol1 = cfg.params.get("tol_product", 1e-12)
    rows.append(ResultRow(cfg.experiment, "product-identity", worst_prod, 0.0,
                          tol1, worst_prod <= tol1, cfg.hash))

    # log-sum identity for the full subset (n = N)
    I2 = IndexSet(tuple(range(N + 1)))
    worst_sum = 0.0
    for _ in range(cfg.params.get("points_n2", 2)):
        p = _random_point(rng, N)
        q_mid = BasePoint(p.mu + np.array([1.5] * N), p.eta * 1.4 + 0.3)
        ref = BasePoint(np.abs(p.mu) + 2.5, 1.0 + 0j)
        res = holo.log_z(A, I2, quad, p, basepath=[ref, q_mid, p])
        got = float(np.sum(res.values))
        want = math.log(abs(p.eta)) - math.log(abs(ref.eta))
        worst_sum = max(worst_sum, abs(got - want))
    tol2 = cfg.params.get("tol_sum", 1e-6)
    rows.append(ResultRow(cfg.experiment, "log-sum-identity", worst_sum, 0.0,
                          tol2, worst_sum <= tol2, cfg.hash))

    fits = holo.growth_bound_check(
        A, I1, quad,
        [BasePoint(np.array([3.0 + 2.0 * k] + [0.5] * (N - 1)), 0.8 + 0.1j)
         for k in range(5)])
    finite = all(np.isfinite([f.k1, f.k2, f.k3, f.k4]).all() for f in fits)
    rows.append(ResultRow(cfg.experiment, "growth-envelope", float(finite), 1.0,
                          0.0, finite, cfg.hash,
                          detail="; ".join(f"z{f.label}: slope={f.slope:.4f} "
                                           f"spread={f.spread:.2e}" for f in fits)))
    return rows


@_experiment("glue-regions", "A", "covering_points", "dim", "subset")
def run_glue_regions(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 1000
    N = cfg.params.get("dim", 3)
    A = QuadForm(np.array(cfg.params["A"], dtype=float)) if "A" in cfg.params \
        else QuadForm.identity(N)
    I = IndexSet(tuple(cfg.params.get("subset", (0, 1, 2))))
    consts = locus.RegionConstants()
    chat = consts.chat(A)
    rows = []

    def sample(kind: str) -> float:
        worst = 0.0
        for _ in range(n):
            nu = 10.0 ** rng.uniform(5.3, 6.3)
            if kind == "core":
                d = nu * rng.uniform(0.05, 0.9) / (4.0 * chat * consts.c0)
            else:
                d = nu * rng.uniform(1.0 / (2.0 * consts.c0), 1.0 / consts.c0 * 0.98)
                if consts.c0 * d >= nu:
                    continue
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            mu = np.zeros(N)
            mu[2] = nu
            mu[0] += d * direction[0]
            mu[1] += d * direction[1]
            p = BasePoint(mu, complex(d * direction[2] / math.sqrt(A.det), 0.0))
            w = glue.glue_weight(A, I, consts, p)
            target = 1.0 if kind == "core" else 0.0
            worst = max(worst, abs(w.value - target))
        return worst

    w_core = sample("core")
    rows.append(ResultRow(cfg.experiment, "core-weight-one", w_core, 0.0, 0.0,
                          w_core == 0.0, cfg.hash))
    w_out = sample("outer")
    rows.append(ResultRow(cfg.experiment, "outer-weight-zero", w_out, 0.0, 0.0,
                          w_out == 0.0, cfg.hash))

    n_cov = cfg.params.get("covering_points", 300)
    uncovered = 0
    for _ in range(n_cov):
        p = _random_point(rng, N, mu_scale=5.0)
        rep = locus.region_membership(A, consts, p)
        if not rep.covered:
            uncovered += 1
    rows.append(ResultRow(cfg.experiment, "covering", float(uncovered), 0.0,
                          0.0, uncovered == 0, cfg.hash))
    return rows


@_experiment("extension-profile", "eps", "piece_tol", "seam_tol", "shoulder", "slope")
def run_extension_profile(cfg: ExperimentConfig) -> list[ResultRow]:
    K = cfg.params.get("slope", 1.0)
    M = cfg.params.get("shoulder", 10.0)
    eps = cfg.params.get("eps", 0.1)
    rows = []
    prof = glue.extension_profile(K, M, 1000.0 * M, eps)
    t_left = np.linspace(1.0, M - 1.0, 20)
    t_right = np.linspace(M + 1.0, 50.0 * M, 20)
    gap_left = float(np.max(np.abs(prof.h(t_left) - K)))
    g = t_right - M + 2.0
    gap_right = float(np.max(np.abs(
        prof.h(t_right) - 2.0 * math.log(2.0) * K / (g * np.log(g)))))
    gap_H = float(np.max(np.abs(
        prof.H(t_right) - (K * M + 2.0 * math.log(2.0) * K * np.log(np.log(g))))))
    piece_tol = cfg.params.get("piece_tol", 1e-12)
    rows.append(ResultRow(cfg.experiment, "piece-left", gap_left, 0.0,
                          piece_tol, gap_left <= piece_tol, cfg.hash))
    rows.append(ResultRow(cfg.experiment, "piece-right-h", gap_right, 0.0,
                          piece_tol, gap_right <= piece_tol, cfg.hash))
    rows.append(ResultRow(cfg.experiment, "piece-right-H", gap_H, 0.0,
                          piece_tol, gap_H <= piece_tol, cfg.hash))
    seam_tol = cfg.params.get("seam_tol", 1e-10)
    seam = 0.0
    for t0 in (M - 1.0, M + 1.0):
        lo, hi = np.nextafter(t0, -np.inf), np.nextafter(t0, np.inf)
        for fn in (prof.h, prof.H, prof.f, prof.f_prime, prof.f_second):
            seam = max(seam, abs(fn(lo) - fn(hi)))
    rows.append(ResultRow(cfg.experiment, "seam-continuity", seam, 0.0,
                          seam_tol, seam <= seam_tol, cfg.hash))

    rep_good = glue.profile_condition_check(prof)
    rows.append(ResultRow(cfg.experiment, "margin-wide-floor",
                          rep_good.min_loggap, 1.0, 0.0, rep_good.positive,
                          cfg.hash, detail=f"argmin log t = {rep_good.argmin_logt:.3g}"))
    prof_bad = glue.extension_profile(K, M, M + 3.0, eps)
    rep_bad = glue.profile_condition_check(prof_bad)
    rows.append(ResultRow(cfg.experiment, "margin-narrow-floor",
                          rep_bad.min_loggap, -1.0, 0.0, not rep_bad.positive,
                          cfg.hash))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghlab",
        description="verification experiments for the asymptotic geometry library")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="ghlab-out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    parser.add_argument("--n", type=int, help="override the sample count")
    args = parser.parse_args(argv)

    cfg = ExperimentConfig.load(args.experiment, args.config, args.seed, args.n)
    rows = EXPERIMENTS[args.experiment](cfg)
    rows = sorted(rows, key=lambda r: r.case)
    _write_outputs(cfg, rows, Path(args.out))
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.experiment}/{r.case}: value={r.value:.6g} "
              f"tol={r.tol:.3g} {r.detail}")
    ok = all(r.passed for r in rows)
    print(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in rows)}/{len(rows)} rows passed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
