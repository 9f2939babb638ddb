"""Command line interface: reproducible verification experiments.

Usage: ghlab <experiment> [--config FILE] [--out DIR] [--seed S] [--n N]

Each experiment samples points from a seeded generator, evaluates one of
the library's identities, and writes a CSV of result rows plus a JSON
sidecar with the effective configuration and its hash.  Reruns with the
same configuration are byte-identical except for the sidecar timestamp.
The process exits 0 exactly when every row passes.  Samplers and
residuals that an acceptance criterion shares come from ``ghlab.checks``;
a runner here reads its config and assembles rows.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import checks, glue, holo, kernels, locus
from .geometry import BasePoint, IndexSet, QuadForm
from .quadrature import QuadratureSpec

SCHEMA_VERSION = 1

# experiment name -> runner, and the params keys each runner reads; both
# are filled by @_experiment next to the runner
EXPERIMENTS: dict = {}
EXPERIMENT_PARAMS: dict[str, frozenset[str]] = {}
CONFIG_KEYS = frozenset({"schema_version", "seed", "n", "params"})
# params that count samples; like n, each must be an integer of at least 1
COUNT_PARAMS = ("covering_points", "points_n1", "points_n2")


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
        # a count below 1 would pass every row over zero samples; one that is
        # no integer (a string, a float, a bool) would crash later or run as 1
        counts = {"n": cfg.n, **{k: cfg.params.get(k) for k in COUNT_PARAMS}}
        for i, case in enumerate(cfg.params.get("cases", [])):
            counts[f"cases[{i}].points"] = case.get("points")
        counts = {k: v for k, v in counts.items() if v is not None}
        for what, bad in (("not an integer", lambda v: type(v) is not int),
                          ("below 1", lambda v: v < 1)):
            keys = [k for k, v in counts.items() if bad(v)]
            if keys:
                raise SystemExit(f"sample count(s) {', '.join(keys)} {what} for {experiment}")
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


# ---------------------------------------------------------------------------
# experiments


def _experiment(name: str, *params: str):
    """Register a runner under ``name`` with the params keys it reads."""
    def register(fn):
        EXPERIMENTS[name] = fn
        EXPERIMENT_PARAMS[name] = frozenset(params)
        return fn
    return register


def _row(cfg: ExperimentConfig, case: str, value: float, tol: float,
         detail: str = "") -> ResultRow:
    """A row with target 0 that passes when ``value <= tol``."""
    return ResultRow(cfg.experiment, case, value, 0.0, tol, value <= tol,
                     cfg.hash, detail)


@_experiment("flat-cy", "dims", "tol")
def run_flat_cy(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 1000
    tol = cfg.params.get("tol", 1e-9)
    return [_row(cfg, f"N={N}", checks.flat_volume_gap(
                [checks.random_point(rng, N, eta_lo=0.0, eta_hi=2.0)
                 for _ in range(n)]), tol)
            for N in cfg.params.get("dims", [1, 2, 3, 4, 5])]


@_experiment("taubnut-exact", "a", "tol")
def run_taubnut_exact(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.params.get("tol", 1e-10)
    A = QuadForm(np.array([[cfg.params.get("a", 1.3)]]))
    pts = [checks.random_point(rng, 1, eta_lo=0.05) for _ in range(cfg.n or 100)]
    gaps = checks.one_slot_gaps(A, QuadratureSpec(), pts)
    return [_row(cfg, case, gap, tol) for case, gap in
            zip(("alpha-closed-form", "cy-identity", "volume-defect"), gaps)]


@_experiment("kernel-closedform", "dims", "rel_tol")
def run_kernel_closedform(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 100
    tol = cfg.params.get("rel_tol", 1e-8)
    return [_row(cfg, f"N={N}", checks.restricted_gap(
                checks.restricted_cases(rng, N, n), QuadratureSpec()), tol)
            for N in cfg.params.get("dims", [2, 3, 4])]


@_experiment("harmonicity", "abs_tol", "dims", "rel_tol")
def run_harmonicity(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 50
    tol = cfg.params.get("rel_tol", 1e-3)
    quad = QuadratureSpec(abs_tol=cfg.params.get("abs_tol", 1e-10))
    rows = []
    for N in cfg.params.get("dims", [3]):
        A = checks.random_spd(rng, N)
        pts = [checks.off_locus_point(rng, A) for _ in range(n)]
        for kind, labels in (("axis", (0, 1)), ("pair", (1, 2))):
            lap = checks.kernel_laplacian(kernels.KernelSpec(A, labels), quad, pts)
            rows.append(_row(cfg, f"N={N}-{kind}", lap, tol))
    return rows


@_experiment("integrability", "dims", "rel_tol")
def run_integrability(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.params.get("rel_tol", 1e-3)
    rows = []
    for N in cfg.params.get("dims", [3]):
        A = checks.random_spd(rng, N)
        gaps = checks.integrability_gap(A, QuadratureSpec(), [
            checks.off_locus_point(rng, A) for _ in range(cfg.n or 20)])
        rows += [_row(cfg, f"N={N}-{kind}", gap, tol)
                 for kind, gap in zip(("first", "second"), gaps)]
    return rows


@_experiment("commutativity", "dim", "rel_tol")
def run_commutativity(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.params.get("rel_tol", 1e-3)
    A = checks.random_spd(rng, cfg.params.get("dim", 3))
    pts = [checks.off_locus_point(rng, A) for _ in range(cfg.n or 50)]
    pair, axis = checks.gradient_relations(A, QuadratureSpec(), pts)
    return [_row(cfg, "pair-symmetry", pair, tol),
            _row(cfg, "axis-relations", axis, tol)]


@_experiment("weak-chern", "rel_tol")
def run_weak_chern(cfg: ExperimentConfig) -> list[ResultRow]:
    tol = cfg.params.get("rel_tol", 1e-2)
    results = checks.weak_charge_checks(QuadratureSpec(abs_tol=1e-8))
    return [_row(cfg, f"bump-{idx}-{list(labels)}", res.rel_gap, tol,
                 detail=f"lhs={res.lhs:.6g} rhs={res.rhs:.6g}")
            for idx, ((labels, *_), res) in enumerate(zip(checks.WEAK_BUMPS_N2, results))]


@_experiment("pythagoras", "tol")
def run_pythagoras(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    worst = checks.nested_projection_gap(checks.nested_cases(rng, cfg.n or 500))
    return [_row(cfg, "nested-hulls", worst, cfg.params.get("tol", 1e-10))]


@_experiment("eigen-interval", "dim")
def run_eigen_interval(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    cases = checks.eigen_cases(rng, cfg.n or 100, cfg.params.get("dim", 4))
    return [_row(cfg, "schur-eigen-interval", checks.schur_eigen_violation(cases),
                 1e-12)]


@_experiment("decay-scan")
def run_decay_scan(cfg: ExperimentConfig) -> list[ResultRow]:
    return [ResultRow(cfg.experiment, f"ray-{label}", got, want, win, ok, cfg.hash)
            for label, got, want, win, ok in checks.decay_exponents(
                QuadratureSpec(abs_tol=1e-12))]


@_experiment("beta-bounds", "C_max", "dims")
def run_beta_bounds(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 40
    bound = cfg.params.get("C_max", 10.0)
    quad = QuadratureSpec()
    I = IndexSet((0, 1))
    rows = []
    for N in cfg.params.get("dims", [2, 3]):
        A = checks.random_spd(rng, N)
        worst = 0.0
        for _ in range(n):
            p = checks.off_locus_point(rng, A, floor=0.4, mu_scale=3.0)
            b = locus.dist_boundary(A, I, p)
            val = kernels.beta(A, I, 0, 1, quad, p)
            worst = max(worst, abs(val.value) * min(b, 50.0))
        rows.append(_row(cfg, f"N={N}-remainder-bound", worst, bound))
    return rows


@_experiment("gamma-sum", "cases")
def run_gamma_sum(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    quad = QuadratureSpec(abs_tol=1e-11)
    rows = []
    for case in cfg.params.get("cases", [
        {"N": 2, "n_active": 1, "points": 10, "tol": 1e-3},
        {"N": 2, "n_active": 2, "points": 3, "tol": 1e-2},
    ]):
        N, n_act = case["N"], case["n_active"]
        A = checks.random_spd(rng, N)
        spec = holo.GammaSpec(A, IndexSet(tuple(range(n_act + 1))), quad)
        worst = checks.gamma_sum_gap(
            spec, [checks.random_point(rng, N) for _ in range(case["points"])])
        rows.append(_row(cfg, f"n={n_act}", worst, case["tol"]))
    return rows


@_experiment("logz-growth", "dim", "points_n1", "points_n2", "tol_product", "tol_sum")
def run_logz_growth(cfg: ExperimentConfig) -> list[ResultRow]:
    rng = np.random.default_rng(cfg.seed)
    N = cfg.params.get("dim", 2)
    A = checks.random_spd(rng, N)
    quad = QuadratureSpec(abs_tol=1e-11)
    prod = checks.product_identity_gap(
        A, quad, [checks.random_point(rng, N)
                  for _ in range(cfg.params.get("points_n1", 10))])
    # the log-sum path detours through one intermediate point
    total = checks.log_sum_gap(
        A, quad, [checks.random_point(rng, N)
                  for _ in range(cfg.params.get("points_n2", 2))],
        via=lambda p: [BasePoint(p.mu + 1.5, p.eta * 1.4 + 0.3)])
    fits = holo.growth_bound_check(
        A, IndexSet((0, 1)), quad,
        [BasePoint(np.array([3.0 + 2.0 * k] + [0.5] * (N - 1)), 0.8 + 0.1j)
         for k in range(5)])
    finite = all(np.isfinite([f.slope, f.k1, f.k3]).all() for f in fits)
    return [
        _row(cfg, "product-identity", prod, cfg.params.get("tol_product", 1e-12)),
        _row(cfg, "log-sum-identity", total, cfg.params.get("tol_sum", 1e-6)),
        ResultRow(cfg.experiment, "growth-envelope", float(finite), 1.0, 0.0,
                  finite, cfg.hash,
                  detail="; ".join(f"z{f.label}: slope={f.slope:.4f} "
                                   f"spread={f.spread:.2e}" for f in fits)),
    ]


@_experiment("glue-regions", "covering_points")
def run_glue_regions(cfg: ExperimentConfig) -> list[ResultRow]:
    # the plateau sampler is built for stratum (0, 1, 2) at N = 3
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n or 1000
    A = QuadForm.identity(3)
    core = checks.plateau_gap(A, checks.plateau_points(rng, A, n, "core"), 1.0)
    outer = checks.plateau_gap(A, checks.plateau_points(rng, A, n, "outer"), 0.0)
    consts = locus.RegionConstants()
    uncovered = sum(
        not locus.region_membership(
            A, consts, checks.random_point(rng, 3, mu_scale=5.0)).covered
        for _ in range(cfg.params.get("covering_points", 300)))
    return [_row(cfg, "core-weight-one", core, 0.0),
            _row(cfg, "outer-weight-zero", outer, 0.0),
            _row(cfg, "covering", float(uncovered), 0.0)]


@_experiment("extension-profile", "eps", "piece_tol", "seam_tol", "shoulder", "slope")
def run_extension_profile(cfg: ExperimentConfig) -> list[ResultRow]:
    K = cfg.params.get("slope", 1.0)
    M = cfg.params.get("shoulder", 10.0)
    eps = cfg.params.get("eps", 0.1)
    prof = glue.extension_profile(K, M, 1000.0 * M, eps)
    gaps = checks.profile_piece_gaps(prof, np.linspace(1.0, M - 1.0, 20),
                                     np.linspace(M + 1.0, 50.0 * M, 20))
    piece_tol = cfg.params.get("piece_tol", 1e-12)
    rows = [_row(cfg, case, gap, piece_tol) for case, gap in
            zip(("piece-left", "piece-right-h", "piece-right-H"), gaps)]
    seam = 0.0
    for t0 in (M - 1.0, M + 1.0):
        lo, hi = np.nextafter(t0, -np.inf), np.nextafter(t0, np.inf)
        for fn in (prof.h, prof.H, prof.f, prof.f_prime, prof.f_second):
            seam = max(seam, abs(fn(lo) - fn(hi)))
    rows.append(_row(cfg, "seam-continuity", seam, cfg.params.get("seam_tol", 1e-10)))

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
    rows = sorted(EXPERIMENTS[args.experiment](cfg), key=lambda r: r.case)
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
