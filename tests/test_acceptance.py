"""Acceptance suite: twelve numbered criteria, each a run of CLI experiments.

``ACCEPTANCE`` maps each criterion to the ``ghlab.cli`` experiments that
make it.  An experiment's acceptance run is ``ghlab <experiment>`` with no
flags, at the seed and sample count registered with its runner; the
runners draw the inputs and hold the ``ghlab.checks`` residuals to their
tolerances, and this file holds only the table.  Each test makes its runs
through ``cli.main``, once each, and every row of the CSVs they write
prints as ``ACCEPTANCE nn PASS/FAIL ...`` with its value, tolerance and
command, must pass and must match its row in the verdict ledger,
``tests/ledger.json``, exactly.  ``beta-bounds``, the one experiment
outside the table, is held to the ledger the same way.  ``criterion_rows``
runs one criterion in process for the negative controls in
``test_checks.py``.
"""

import csv
import time

import ledger
from ghlab.cli import EXPERIMENTS, ExperimentConfig, ResultRow, main, run

ACCEPTANCE = {
    "01_flat_background_volume_identity": ("flat-cy",),
    "02_one_slot_model_exact": ("taubnut-exact",),
    "03_restricted_kernel_closed_form": ("kernel-closedform",),
    "04_harmonicity_and_gradient_relations": ("harmonicity", "commutativity"),
    "05_weak_distributional_charge": ("weak-chern",),
    "06_decay_exponent_windows": ("decay-scan",),
    "07_projection_geometry": ("pythagoras", "eigen-interval"),
    "08_gamma_sum_identity": ("gamma-sum",),
    "09_moduli_product_and_log_sum": ("logz-growth",),
    "10_glue_weight_plateaus": ("glue-regions",),
    "11_extension_profile": ("extension-profile",),
    "12_integrability_residuals": ("integrability",),
}
# its remainder bound has no criterion yet (ROADMAP item 22)
OUTSIDE = ("beta-bounds",)


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


def test_beta_bounds_run_matches_the_ledger(tmp_path):
    code, rows, moved = acceptance_run("beta-bounds", tmp_path)
    assert code == 0
    assert not moved, ledger.MOVED + "\n".join(moved)


def test_every_experiment_has_one_ledger_run():
    # the tests above run each registered experiment once, and the ledger
    # holds those runs and nothing else
    runs = [exp for entry in ACCEPTANCE.values() for exp in entry] + list(OUTSIDE)
    assert sorted(runs) == sorted(EXPERIMENTS) == sorted(ledger.load())
