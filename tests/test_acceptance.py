"""Acceptance suite: twelve numbered criteria, each a run of CLI experiments.

``ACCEPTANCE`` maps each criterion to the ``ghlab.cli`` experiments that
make it.  An experiment's acceptance run is ``ghlab <experiment>`` with no
flags, at the seed and sample count registered with its runner; the
runners draw the inputs and hold the ``ghlab.checks`` residuals to their
tolerances, and this file holds only the table.  Each test makes its runs
through ``cli.main``, once each, and every row of the CSVs they write
prints as ``ACCEPTANCE nn PASS/FAIL ...`` with its value, tolerance and
command, must pass and must match its row in the verdict ledger,
``tests/ledger.json``, exactly.  ``criterion_rows`` runs one criterion in
process for the negative controls in ``test_checks.py``.
"""

import csv
import time

import ledger
from ghlab.cli import EXPERIMENTS, ExperimentConfig, ResultRow, main, run

ACCEPTANCE = {
    "01_flat_background_volume_identity": ("flat-cy",),
    "02_one_slot_model_exact": ("taubnut-exact",),
    "03_restricted_kernel_closed_form": ("kernel-closedform",),
    "04_harmonicity_and_gradient_relations": ("harmonicity",),
    "05_weak_distributional_charge": ("weak-chern",),
    "06_decay_exponent_windows": ("decay-scan",),
    "07_projection_geometry": ("pythagoras", "eigen-interval"),
    "08_gamma_sum_identity": ("gamma-sum",),
    "09_moduli_product_and_log_sum": ("logz-growth",),
    "10_glue_weight_plateaus": ("glue-regions",),
    "11_extension_profile": ("extension-profile",),
    "12_integrability_residuals": ("integrability",),
}


def criterion_rows(num: str) -> dict:
    """Every row of criterion ``num``'s acceptance runs, keyed
    ``experiment/case``."""
    (entry,) = [v for k, v in ACCEPTANCE.items() if k[:2] == num]
    return {f"{r.experiment}/{r.case}": r for exp in entry
            for r in run(ExperimentConfig.load(exp, None, None))}


def acceptance_run(exp: str, out_dir) -> tuple[int, list[ResultRow], list[str]]:
    """``ghlab <exp> --out out_dir``: its exit code, the rows of the CSV it
    wrote (17 digits read back to the same floats) and every field of
    them that moved from the ledger."""
    code = main([exp, "--out", str(out_dir)])
    with open(out_dir / f"{exp}.csv", newline="") as fh:
        rows = [ResultRow(r["experiment"], r["case"], float(r["value"]), float(r["target"]),
                          float(r["tol"]), r["passed"] == "true", r["config_hash"], r["detail"])
                for r in csv.DictReader(fh)]
    return code, rows, ledger.moves(exp, ledger.load().get(exp), ledger.entry(rows))


def _criterion_test(name):
    def test(capsys, tmp_path):
        failed, moved = [], []
        for exp in ACCEPTANCE[name]:
            t0 = time.time()
            code, rows, exp_moved = acceptance_run(exp, tmp_path)
            for r in rows:
                with capsys.disabled():
                    print(f"ACCEPTANCE {name[:2]} {r} [{time.time() - t0:.1f}s] <- ghlab {exp}")
            failed += [f"{exp}/{r.case}" for r in rows if not r.passed]
            failed += [f"{exp}: exit {code}"] if code else []
            moved += exp_moved
        assert not failed, failed
        assert not moved, ledger.MOVED + "\n".join(moved)
    test.__name__ = f"test_{name}"
    return test


# one test per criterion, named after its key
for _name in ACCEPTANCE:
    globals()[f"test_{_name}"] = _criterion_test(_name)


def test_every_experiment_has_one_ledger_run():
    # the tests above run each registered experiment once, and the ledger
    # holds those runs and nothing else
    runs = [exp for entry in ACCEPTANCE.values() for exp in entry]
    assert sorted(runs) == sorted(EXPERIMENTS) == sorted(ledger.load())


def test_n4_field_rows_pass_with_headroom():
    # the paper's metrics live on C^(N+1) for N >= 3, so lines 04 and 12
    # run at N = 4 too, on the swept path; predicted before their first
    # run: each N = 4 row passes at under 1e-4 of its tolerance (the
    # draws at N = 4 alone read 1.55e-9, 3.32e-9 and 4.30e-8 against 1e-3)
    rows = {f"{exp}/{r['case']}": r for exp in ("harmonicity", "integrability")
            for r in ledger.load()[exp] if r["case"].startswith("N=4-")}
    assert sorted(rows) == [
        "harmonicity/N=4-axis", "harmonicity/N=4-axis-relations",
        "harmonicity/N=4-pair", "harmonicity/N=4-pair-symmetry",
        "integrability/N=4-euler", "integrability/N=4-first", "integrability/N=4-second"]
    for key, r in rows.items():
        assert r["passed"] and float(r["value"]) < 1e-4 * float(r["tol"]), (key, r)


def test_n4_field_runs_sweep_pinned_nodes(monkeypatch):
    # the swept engine evals (grid nodes times rows, summed over the
    # sweeps of quadrature._sweep_group) carry no noise, so they gate the
    # cost of the N = 4 rows of 04 and 12 (nothing sweeps at N = 3).  Each
    # reads one family Hessian: its 10 kernels at p, p + 2 and p + 4, on one
    # grid each, 500 rows for 04 (the Laplacians and relations alike) and
    # 200 for 12 (the Euler rows' values at p among them)
    import ghlab.quadrature as quadrature

    sweep, seen = quadrature._sweep_group, []

    def counted(wedge, P, b, *args):
        out = sweep(wedge, P, b, *args)
        seen.append((len(b), out[-1]))
        return out

    monkeypatch.setattr(quadrature, "_sweep_group", counted)
    pins = {}
    for num in ("04", "12"):
        seen.clear()
        criterion_rows(num)
        pins[num] = (sum(n for _, n in seen), sum(rows for rows, _ in seen))
    assert pins == {"04": (126216, 500), "12": (48408, 200)}
