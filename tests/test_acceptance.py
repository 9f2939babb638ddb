"""Acceptance suite: twelve numbered criteria, each a run of CLI experiments.

``ACCEPTANCE`` maps each criterion to the ``ghlab.cli`` experiments that
make it, each with the config it runs at: the seed, the sample count
``n`` and the params, as a config file would hold them.  The runners draw
the inputs and hold the ``ghlab.checks`` residuals to their tolerances;
this file holds only that table.  Every row prints as ``ACCEPTANCE nn
PASS/FAIL ...`` with its value, tolerance and the ``ghlab`` command that
writes it, and every row must pass and match its row in the verdict
ledger, ``tests/ledger.json``, exactly.  ``criterion_rows`` runs one entry
for the negative controls in ``test_checks.py``.
"""

import json
import time

import ledger
from ghlab.cli import ExperimentConfig, run

ACCEPTANCE = {
    "01_flat_background_volume_identity": {"flat-cy": {"seed": 101, "n": 1000}},
    "02_one_slot_model_exact": {"taubnut-exact": {"seed": 102, "n": 100}},
    "03_restricted_kernel_closed_form": {"kernel-closedform": {"seed": 103, "n": 100}},
    "04_harmonicity_and_gradient_relations": {"harmonicity": {"seed": 104, "n": 50},
                                              "commutativity": {"seed": 104, "n": 50}},
    "05_weak_distributional_charge": {"weak-chern": {}},
    "06_decay_exponent_windows": {"decay-scan": {}},
    "07_projection_geometry": {"pythagoras": {"seed": 107, "n": 500},
                               "eigen-interval": {"seed": 107, "n": 100}},
    "08_gamma_sum_identity": {"gamma-sum": {"seed": 108}},
    "09_moduli_product_and_log_sum": {"logz-growth": {
        "seed": 109, "params": {"points_n1": 10, "points_n2": 3}}},
    "10_glue_weight_plateaus": {"glue-regions": {"seed": 110, "n": 1000}},
    "11_extension_profile": {"extension-profile": {}},
    "12_integrability_residuals": {"integrability": {"seed": 112, "n": 20}},
}


def criterion(num: str) -> dict:
    """Criterion ``num``'s entry: experiment -> config."""
    (entry,) = [v for k, v in ACCEPTANCE.items() if k[:2] == num]
    return entry


def command(experiment: str, config: dict) -> str:
    """The ``ghlab`` command that runs ``experiment`` at ``config``."""
    flags = "".join(f" --{k} {config[k]}" for k in ("seed", "n") if k in config)
    params = (f" --config FILE, FILE holding {json.dumps({'params': config['params']})}"
              if "params" in config else "")
    return f"ghlab {experiment}{flags}{params}"


def criterion_rows(num: str) -> dict:
    """Every row of criterion ``num``, keyed ``experiment/case``."""
    return {f"{r.experiment}/{r.case}": r
            for exp, config in criterion(num).items()
            for r in run(ExperimentConfig(exp, **config))}


def _criterion_test(name):
    def test(capsys):
        failed, moved = [], []
        for exp, config in ACCEPTANCE[name].items():
            t0 = time.time()
            rows = run(ExperimentConfig(exp, **config))
            for r in rows:
                with capsys.disabled():
                    print(f"ACCEPTANCE {name[:2]} {r} [{time.time() - t0:.1f}s] "
                          f"<- {command(exp, config)}")
                if not r.passed:
                    failed.append(f"{exp}/{r.case}")
            key = f"acceptance/{name}/{exp}"
            moved += ledger.moves(key, ledger.load().get(key), ledger.entry(rows))
        assert not failed, failed
        assert not moved, ledger.MOVED + "\n".join(moved)
    test.__name__ = f"test_{name}"
    return test


# one test per criterion, named after its key
for _name in ACCEPTANCE:
    globals()[f"test_{_name}"] = _criterion_test(_name)


def test_every_entry_is_a_config_its_runner_reads(tmp_path):
    # ExperimentConfig.load rejects a param, a seed or a count that the
    # runner does not read, so the suite sets nothing the CLI would refuse
    for entries in ACCEPTANCE.values():
        for exp, config in entries.items():
            path = tmp_path / f"{exp}.json"
            path.write_text(json.dumps(config))
            assert ExperimentConfig.load(exp, str(path), None, None) == \
                ExperimentConfig(exp, **config)
