"""Command line interface: reproducible verification experiments.

Usage: ghlab <experiment> [--config FILE] [--out DIR] [--seed S] [--n N]

Each experiment samples points from a seeded generator, evaluates one of
the library's identities, and writes a CSV of result rows plus a JSON
sidecar with the effective configuration and its hash.  Reruns with the
same configuration are byte-identical except for the sidecar timestamp.
The process exits 0 exactly when every row passes.  Samplers, residuals,
tolerances and quadrature specs that an acceptance criterion shares come
from ``ghlab.checks``; a config sets only seeds, sample counts and
dimensions, and a runner here reads it and assembles rows.
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
from numpy.random import Generator

from . import checks, glue, holo, kernels, locus
from .geometry import BasePoint, IndexSet, QuadForm

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
        # a config of the wrong shape would otherwise end in a traceback
        if type(data) is not dict:
            raise SystemExit(f"config in {path} is not a JSON object")
        if data.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise SystemExit(f"unsupported config schema_version in {path}")
        # a misspelt key would otherwise fall back to its default silently
        # while still changing the config hash
        unknown = sorted(set(data) - CONFIG_KEYS)
        if unknown:
            raise SystemExit(f"unknown config key(s) {', '.join(unknown)} in {path}; "
                             f"accepted: {', '.join(sorted(CONFIG_KEYS))}")
        if type(data.get("params", {})) is not dict:
            raise SystemExit(f"config key params is not an object in {path}")
        accepted = EXPERIMENT_PARAMS.get(experiment, frozenset())
        unknown = sorted(set(data.get("params", {})) - accepted)
        if unknown:
            raise SystemExit(f"unknown param(s) {', '.join(unknown)} for {experiment} "
                             f"in {path}; accepted: {', '.join(sorted(accepted))}")
        cfg = cls(experiment, data.get("seed", cls.seed) if seed is None else seed,
                  data.get("n") if n is None else n, data.get("params", {}))
        # numpy reads a bool as a seed and rejects a float, string or
        # negative one with a traceback
        if type(cfg.seed) is not int or cfg.seed < 0:
            raise SystemExit(f"seed {cfg.seed!r} not an integer of at least 0 "
                             f"for {experiment}")
        # a count below 1 would pass every row over zero samples; one that is
        # no integer (a string, a float, a bool) would crash later or run as 1
        counts = {"n": cfg.n, **{k: cfg.params.get(k) for k in COUNT_PARAMS}}
        counts = {k: v for k, v in counts.items() if v is not None}
        for what, bad in (("not an integer", lambda v: type(v) is not int),
                          ("below 1", lambda v: v < 1)):
            keys = [k for k, v in counts.items() if bad(v)]
            if keys:
                raise SystemExit(f"sample count(s) {', '.join(keys)} {what} for {experiment}")
        # no dimension passes over zero rows; one below 1 or no integer crashes
        dims, dim = cfg.params.get("dims", [1]), cfg.params.get("dim", 1)
        if type(dims) is not list or not dims or {type(N) for N in dims} != {int} or min(dims) < 1:
            raise SystemExit(f"param dims {dims!r} not a non-empty list of integers "
                             f"of at least 1 for {experiment}")
        if type(dim) is not int or dim < 1:
            raise SystemExit(f"param dim {dim!r} not an integer of at least 1 for {experiment}")
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


def _write_outputs(cfg: ExperimentConfig, rows: list[ResultRow], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.experiment}.csv"
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["experiment", "case", "value", "target", "tol",
                     "passed", "config_hash", "detail"])
        for r in rows:
            wr.writerow([r.experiment, r.case, f"{r.value:.17g}", f"{r.target:.17g}",
                         f"{r.tol:.17g}", str(r.passed).lower(), r.config_hash, r.detail])
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
    """Register a runner under ``name`` with the params keys it reads; a
    runner takes the config and a generator seeded by it."""
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


@_experiment("flat-cy", "dims")
def run_flat_cy(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"N={N}", checks.flat_volume_gap(
                [checks.random_point(rng, N, eta_lo=0.0, eta_hi=2.0)
                 for _ in range(cfg.n or 1000)]), checks.FLAT_VOLUME_TOL)
            for N in cfg.params.get("dims", [1, 2, 3, 4, 5])]


@_experiment("taubnut-exact")
def run_taubnut_exact(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    A = QuadForm(np.array([[checks.ONE_SLOT_FORM]]))
    pts = [checks.random_point(rng, 1, eta_lo=0.05) for _ in range(cfg.n or 100)]
    gaps = checks.one_slot_gaps(A, checks.QUAD, pts)
    return [_row(cfg, case, gap, checks.ONE_SLOT_TOL) for case, gap in
            zip(("alpha-closed-form", "cy-identity", "volume-defect"), gaps)]


@_experiment("kernel-closedform", "dims")
def run_kernel_closedform(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"N={N}", checks.restricted_gap(checks.restricted_cases(
                rng, N, cfg.n or 100), checks.QUAD), checks.RESTRICTED_TOL)
            for N in cfg.params.get("dims", [2, 3, 4])]


@_experiment("harmonicity", "dims")
def run_harmonicity(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    rows = []
    for N in cfg.params.get("dims", [3]):
        A = checks.random_spd(rng, N)
        pts = [checks.off_locus_point(rng, A) for _ in range(cfg.n or 50)]
        for kind, labels in (("axis", (0, 1)), ("pair", (1, 2))):
            lap = checks.kernel_laplacian(kernels.KernelSpec(A, labels), checks.QUAD, pts)
            rows.append(_row(cfg, f"N={N}-{kind}", lap, checks.HARMONIC_TOL))
    return rows


@_experiment("integrability", "dims")
def run_integrability(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    rows = []
    for N in cfg.params.get("dims", [3]):
        A = checks.random_spd(rng, N)
        gaps = checks.integrability_gap(A, checks.QUAD, [
            checks.off_locus_point(rng, A) for _ in range(cfg.n or 20)])
        rows += [_row(cfg, f"N={N}-{kind}", gap, checks.INTEGRABILITY_TOL)
                 for kind, gap in zip(("first", "second"), gaps)]
    return rows


@_experiment("commutativity", "dim")
def run_commutativity(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    A = checks.random_spd(rng, cfg.params.get("dim", 3))
    pts = [checks.off_locus_point(rng, A) for _ in range(cfg.n or 50)]
    pair, axis = checks.gradient_relations(A, checks.QUAD, pts)
    return [_row(cfg, "pair-symmetry", pair, checks.HARMONIC_TOL),
            _row(cfg, "axis-relations", axis, checks.HARMONIC_TOL)]


@_experiment("weak-chern")
def run_weak_chern(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"bump-{idx}-{list(labels)}", res.rel_gap, checks.WEAK_TOL,
                 detail=f"lhs={res.lhs:.6g} rhs={res.rhs:.6g} evals={res.alpha_evals}")
            for idx, ((labels, *_), res) in enumerate(zip(checks.WEAK_BUMPS_N2,
                                                          checks.weak_charge_checks()))]


@_experiment("pythagoras")
def run_pythagoras(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    worst = checks.nested_projection_gap(checks.nested_cases(rng, cfg.n or 500))
    return [_row(cfg, "nested-hulls", worst, checks.PROJECTION_TOL)]


@_experiment("eigen-interval", "dim")
def run_eigen_interval(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    cases = checks.eigen_cases(rng, cfg.n or 100, cfg.params.get("dim", 4))
    return [_row(cfg, "schur-eigen-interval", checks.schur_eigen_violation(cases),
                 checks.EIGEN_TOL)]


@_experiment("decay-scan")
def run_decay_scan(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [ResultRow(cfg.experiment, f"ray-{label}", got, want, win, ok, cfg.hash)
            for label, got, want, win, ok in checks.decay_exponents()]


@_experiment("beta-bounds", "dims")
def run_beta_bounds(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    I = IndexSet((0, 1))
    rows = []
    for N in cfg.params.get("dims", [2, 3]):
        A = checks.random_spd(rng, N)
        worst = 0.0
        for _ in range(cfg.n or 40):
            p = checks.off_locus_point(rng, A, floor=0.4, mu_scale=3.0)
            b = locus.dist_boundary(A, I, p)
            val = kernels.beta(A, I, 0, 1, checks.QUAD, p)
            worst = max(worst, abs(val.value) * min(b, 50.0))
        rows.append(_row(cfg, f"N={N}-remainder-bound", worst, checks.C_MAX))
    return rows


@_experiment("gamma-sum")
def run_gamma_sum(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"n={n_act}", gap, tol) for (n_act, _, tol), gap in
            zip(checks.GAMMA_CASES_N2, checks.gamma_sum_gaps(rng))]


@_experiment("logz-growth", "dim", "points_n1", "points_n2")
def run_logz_growth(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    N = cfg.params.get("dim", 2)
    A = checks.random_spd(rng, N)
    quad = checks.GAMMA_QUAD
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
        _row(cfg, "product-identity", prod, checks.PRODUCT_TOL),
        _row(cfg, "log-sum-identity", total, checks.LOG_SUM_TOL),
        ResultRow(cfg.experiment, "growth-envelope", float(finite), 1.0, 0.0,
                  finite, cfg.hash,
                  detail="; ".join(f"z{f.label}: slope={f.slope:.4f} "
                                   f"spread={f.spread:.2e}" for f in fits)),
    ]


@_experiment("glue-regions", "covering_points")
def run_glue_regions(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    # the plateau sampler is built for stratum (0, 1, 2) at N = 3
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


@_experiment("extension-profile")
def run_extension_profile(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    K, M, floor, eps = checks.PROFILE
    prof = glue.ExtensionProfile(K, M, floor, eps)
    gaps = checks.profile_piece_gaps(prof, np.linspace(1.0, M - 1.0, 20),
                                     np.linspace(M + 1.0, 50.0 * M, 20))
    rows = [_row(cfg, case, gap, checks.PIECE_TOL) for case, gap in
            zip(("piece-left", "piece-right-h", "piece-right-H"), gaps)]
    rows.append(_row(cfg, "seam-continuity", checks.profile_seam_jump(prof),
                     checks.SEAM_TOL))

    rep_good = glue.profile_condition_check(prof)
    rows.append(ResultRow(cfg.experiment, "margin-wide-floor",
                          rep_good.min_loggap, 1.0, 0.0, rep_good.positive,
                          cfg.hash, detail=f"argmin log t = {rep_good.argmin_logt:.3g}"))
    prof_bad = glue.ExtensionProfile(K, M, M + 3.0, eps)
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
    rows = sorted(EXPERIMENTS[args.experiment](cfg, np.random.default_rng(cfg.seed)),
                  key=lambda r: r.case)
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
