"""Command line interface: reproducible verification experiments.

Usage: ghlab <experiment> [--out DIR] [--seed S] [--n N]

Each experiment samples points from a seeded generator, evaluates one of
the library's identities, and writes a CSV of result rows plus a JSON
sidecar with the effective configuration and its hash.  Reruns with the
same configuration are byte-identical except for the sidecar timestamp.
The process exits 0 exactly when every row passes.  A runner here is the
only code that draws a criterion's inputs with ``ghlab.checks`` samplers
and holds its residuals to their tolerances; ``ghlab <experiment>`` with
no flags runs it at its registered seed and count, the acceptance run.
Dimensions and every other count are literals in each runner; only the
seed and the sample count are settable, and one that the runner does not
read is rejected.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import Generator

from . import checks, glue, kernels, locus
from .geometry import QuadForm

SCHEMA_VERSION = 2


class Experiment(NamedTuple):
    run: Callable
    seed: int | None
    n: int | None


# experiment name -> its runner and its acceptance run's seed and sample
# count (None where unread); filled by @_experiment
EXPERIMENTS: dict[str, Experiment] = {}


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int | None
    n: int | None

    @classmethod
    def load(cls, experiment: str, seed: int | None, n: int | None) -> "ExperimentConfig":
        """The config of ``ghlab <experiment>`` with the given seed and count,
        each unset one at its registered value, or SystemExit."""
        exp = EXPERIMENTS[experiment]
        # a seed or count the runner never reads would change the config hash
        # and nothing else
        given = {"n": n, "seed": seed}
        reads = [k for k in ("n", "seed") if getattr(exp, k) is not None]
        unread = [k for k, v in given.items() if v is not None and k not in reads]
        if unread:
            raise SystemExit(f"setting(s) {', '.join(unread)} unread by {experiment}; "
                             f"it reads: {', '.join(reads) or 'neither'}")
        cfg = cls(experiment, exp.seed if seed is None else seed, exp.n if n is None else n)
        # numpy rejects a negative seed with a traceback, and a count below 1
        # would pass every row over zero samples
        if cfg.seed is not None and cfg.seed < 0:
            raise SystemExit(f"seed {cfg.seed} below 0 for {experiment}")
        if cfg.n is not None and cfg.n < 1:
            raise SystemExit(f"sample count n {cfg.n} below 1 for {experiment}")
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

    def __str__(self) -> str:
        target = f" target={self.target:.6g}" if self.target else ""
        return (f"{'PASS' if self.passed else 'FAIL'} {self.experiment}/{self.case}: "
                f"value={self.value:.6g}{target} tol={self.tol:.3g} {self.detail}").rstrip()


def _write_outputs(cfg: ExperimentConfig, rows: list[ResultRow], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{cfg.experiment}.csv", "w", newline="") as fh:
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


def _experiment(name: str, seed: int | None = None, n: int | None = None):
    """Register a runner under ``name`` with the seed and sample count of
    ``ghlab <name>`` with no flags, none where it reads none.  A runner
    takes the config and a generator seeded by it."""
    def register(fn):
        EXPERIMENTS[name] = Experiment(fn, seed, n)
        return fn
    return register


def _row(cfg: ExperimentConfig, case: str, value: float, tol: float,
         detail: str = "") -> ResultRow:
    """A row with target 0 that passes when ``value <= tol``."""
    return ResultRow(cfg.experiment, case, value, 0.0, tol, value <= tol,
                     cfg.hash, detail)


@_experiment("flat-cy", seed=101, n=1000)
def run_flat_cy(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"N={N}", checks.flat_volume_gap(
                [checks.random_point(rng, N, eta_lo=0.0, eta_hi=2.0)
                 for _ in range(cfg.n)]), checks.FLAT_VOLUME_TOL)
            for N in (1, 2, 3, 4, 5)]


@_experiment("taubnut-exact", seed=102, n=100)
def run_taubnut_exact(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    gaps = checks.one_slot_gaps([checks.random_point(rng, 1, eta_lo=0.05)
                                 for _ in range(cfg.n)])
    return [_row(cfg, case, gap, checks.ONE_SLOT_TOL) for case, gap in
            zip(("alpha-closed-form", "cy-identity", "volume-defect"), gaps)]


@_experiment("kernel-closedform", seed=103, n=100)
def run_kernel_closedform(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"N={N}", checks.restricted_gap(checks.restricted_cases(
                rng, N, cfg.n)), checks.RESTRICTED_TOL)
            for N in (2, 3, 4)]


@_experiment("harmonicity", seed=104, n=50)
def run_harmonicity(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    rows = []
    for N in (3, 4):
        A = checks.random_spd(rng, N)
        pts = [checks.off_locus_point(rng, A) for _ in range(cfg.n)]
        for kind, labels in (("axis", (0, 1)), ("pair", (1, 2))):
            lap = checks.kernel_laplacian(kernels.KernelSpec(A, labels), pts)
            rows.append(_row(cfg, f"N={N}-{kind}", lap, checks.HARMONIC_TOL))
        pair, axis = checks.gradient_relations(A, pts)
        rows += [_row(cfg, f"N={N}-pair-symmetry", pair, checks.HARMONIC_TOL),
                 _row(cfg, f"N={N}-axis-relations", axis, checks.HARMONIC_TOL)]
    return rows


@_experiment("integrability", seed=112, n=20)
def run_integrability(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    rows = []
    for N in (3, 4):
        A = checks.random_spd(rng, N)
        first, second, euler = checks.integrability_gap(A, [
            checks.off_locus_point(rng, A) for _ in range(cfg.n)])
        rows += [_row(cfg, f"N={N}-{kind}", gap, checks.INTEGRABILITY_TOL)
                 for kind, gap in (("first", first), ("second", second))]
        rows.append(_row(cfg, f"N={N}-euler", euler, checks.EULER_TOL[N]))
    return rows


@_experiment("weak-chern")
def run_weak_chern(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"bump-{idx}-{list(labels)}", res.rel_gap, checks.WEAK_TOL,
                 detail=f"lhs={res.lhs:.6g} rhs={res.rhs:.6g} evals={res.alpha_evals}")
            for idx, ((labels, *_), res) in enumerate(zip(checks.WEAK_BUMPS_N2,
                                                          checks.weak_charge_checks()))]


@_experiment("pythagoras", seed=107, n=500)
def run_pythagoras(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    worst = checks.nested_projection_gap(checks.nested_cases(rng, cfg.n))
    return [_row(cfg, "nested-hulls", worst, checks.PROJECTION_TOL)]


@_experiment("eigen-interval", seed=107, n=100)
def run_eigen_interval(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"N={N}-schur-eigen-interval", checks.schur_eigen_violation(
                checks.eigen_cases(rng, cfg.n, N)), checks.EIGEN_TOL)
            for N in (4,)]


@_experiment("decay-scan")
def run_decay_scan(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [ResultRow(cfg.experiment, f"ray-{label}", got, want, win, ok, cfg.hash)
            for label, got, want, win, ok in checks.decay_exponents()]


@_experiment("gamma-sum", seed=108)
def run_gamma_sum(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    return [_row(cfg, f"n={n_act}", gap, tol) for (n_act, _, tol), gap in
            zip(checks.GAMMA_CASES_N2, checks.gamma_sum_gaps(rng))]


@_experiment("logz-growth", seed=109)
def run_logz_growth(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    prod = checks.product_identity_gap([checks.random_point(rng, 2) for _ in range(10)])
    pts = [checks.log_sum_point(rng) for _ in range(3)]
    return [_row(cfg, "product-identity", prod, checks.PRODUCT_TOL),
            _row(cfg, "log-sum-identity", checks.log_sum_gap(pts), checks.LOG_SUM_TOL),
            _row(cfg, "log-sum-detour", checks.log_sum_gap(pts, detour=True), checks.LOG_SUM_TOL)]


@_experiment("glue-regions", seed=110, n=1000)
def run_glue_regions(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    # the plateau sampler is built for stratum (0, 1, 2) at N = 3
    A = QuadForm.identity(3)
    core = checks.plateau_gap(A, checks.plateau_points(rng, A, cfg.n, "core"), 1.0)
    outer = checks.plateau_gap(A, checks.plateau_points(rng, A, cfg.n, "outer"), 0.0)
    uncovered = sum(not locus.region_membership(
        A, locus.RegionConstants(), checks.random_point(rng, 3, mu_scale=5.0)).covered
        for _ in range(300))
    return [_row(cfg, "core-weight-one", core, 0.0),
            _row(cfg, "outer-weight-zero", outer, 0.0),
            _row(cfg, "covering", float(uncovered), 0.0)]


@_experiment("extension-profile")
def run_extension_profile(cfg: ExperimentConfig, rng: Generator) -> list[ResultRow]:
    prof = glue.ExtensionProfile(*checks.PROFILE)
    rows = [_row(cfg, case, gap, checks.PIECE_TOL) for case, gap in
            zip(("piece-left", "piece-right-h", "piece-right-H"),
                checks.profile_piece_gaps(prof))]
    rows.append(_row(cfg, "seam-continuity", checks.profile_seam_jump(prof),
                     checks.SEAM_TOL))
    rep_good = glue.profile_condition_check(prof)
    rows.append(ResultRow(cfg.experiment, "margin-wide-floor",
                          rep_good.min_loggap, 1.0, 0.0, rep_good.positive,
                          cfg.hash, detail=f"argmin log t = {rep_good.argmin_logt:.3g}"))
    rep_bad = glue.profile_condition_check(
        glue.ExtensionProfile(prof.K, prof.M, prof.M + 3.0, prof.eps))
    rows.append(ResultRow(cfg.experiment, "margin-narrow-floor",
                          rep_bad.min_loggap, -1.0, 0.0, not rep_bad.positive,
                          cfg.hash))
    return rows


def run(cfg: ExperimentConfig) -> list[ResultRow]:
    """The experiment's rows, sorted by case, drawn from ``cfg.seed``."""
    return sorted(EXPERIMENTS[cfg.experiment].run(cfg, np.random.default_rng(cfg.seed)),
                  key=lambda r: r.case)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghlab", allow_abbrev=False,
        description="verification experiments for the asymptotic geometry library")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--out", default="ghlab-out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    parser.add_argument("--n", type=int, help="override the sample count")
    args = parser.parse_args(argv)

    cfg = ExperimentConfig.load(args.experiment, args.seed, args.n)
    rows = run(cfg)
    _write_outputs(cfg, rows, Path(args.out))
    print("\n".join(map(str, rows)))
    ok = all(r.passed for r in rows)
    print(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in rows)}/{len(rows)} rows passed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
