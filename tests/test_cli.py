import ast
import inspect
import json
import textwrap

import pytest

from ghlab import checks
from ghlab.cli import EXPERIMENTS, ExperimentConfig, main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def _refused_flags(capsys, experiment, argv):
    with pytest.raises(SystemExit):
        main([experiment, *argv])
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


def test_registry_complete():
    assert len(EXPERIMENTS) == 13


def test_flat_cy_writes_csv_and_sidecar(tmp_path):
    code, out = run(tmp_path, "flat-cy", "--n", "20")
    assert code == 0
    csv_text = (out / "flat-cy.csv").read_text()
    assert csv_text.splitlines()[0].startswith("experiment,case,value")
    assert csv_text.count("true") == 5
    side = json.loads((out / "flat-cy.json").read_text())
    assert side["schema_version"] == 2
    assert side["config"] == {"experiment": "flat-cy", "seed": 101, "n": 20}
    assert side["all_passed"] is True
    assert side["n_rows"] == 5
    assert "created_unix" in side


def test_rerun_is_deterministic(tmp_path):
    _, out1 = run(tmp_path / "a", "pythagoras", "--n", "30")
    _, out2 = run(tmp_path / "b", "pythagoras", "--n", "30")
    assert (out1 / "pythagoras.csv").read_bytes() == \
        (out2 / "pythagoras.csv").read_bytes()
    s1 = json.loads((out1 / "pythagoras.json").read_text())
    s2 = json.loads((out2 / "pythagoras.json").read_text())
    s1.pop("created_unix")
    s2.pop("created_unix")
    assert s1 == s2


def test_seed_changes_hash_and_samples(tmp_path):
    _, out1 = run(tmp_path / "a", "pythagoras", "--n", "10", "--seed", "1")
    _, out2 = run(tmp_path / "b", "pythagoras", "--n", "10", "--seed", "2")
    r1 = (out1 / "pythagoras.csv").read_text().splitlines()[1]
    r2 = (out2 / "pythagoras.csv").read_text().splitlines()[1]
    assert r1 != r2


def test_unset_settings_fall_back_to_the_registered_ones(tmp_path):
    # --n alone keeps the acceptance run's seed; a runner that reads no
    # seed records none
    _, out = run(tmp_path, "flat-cy", "--n", "3")
    side = json.loads((out / "flat-cy.json").read_text())
    assert (side["config"]["seed"], side["config"]["n"]) == (EXPERIMENTS["flat-cy"].seed, 3)
    _, out = run(tmp_path, "extension-profile")
    side = json.loads((out / "extension-profile.json").read_text())
    assert (side["config"]["seed"], side["config"]["n"]) == (None, None)


def test_failure_exit_code(tmp_path, monkeypatch):
    # a residual above its tolerance: the run must report failure through
    # the exit code
    monkeypatch.setattr(checks, "nested_projection_gap", lambda cases: 1.0)
    code, out = run(tmp_path, "pythagoras", "--n", "10")
    assert code == 1
    side = json.loads((out / "pythagoras.json").read_text())
    assert side["all_passed"] is False


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-thing"])


def test_a_prefix_of_a_flag_is_refused(tmp_path, capsys):
    # argparse reads a prefix as the flag it starts unless told not to:
    # --se 5 once ran with seed 5
    with pytest.raises(SystemExit):
        main(["pythagoras", "--se", "5", "--out", str(tmp_path)])
    assert "unrecognized arguments: --se 5" in capsys.readouterr().err
    code, out = run(tmp_path, "pythagoras", "--seed", "5", "--n", "3")
    assert code == 0
    assert json.loads((out / "pythagoras.json").read_text())["config"]["seed"] == 5


def test_bad_schema_version(capsys):
    # the schema 1 config file is gone; a script that still passes one
    # fails loudly instead of running the acceptance run
    _refused_flags(capsys, "flat-cy", ["--config", "x.json"])


def test_config_hash_stability():
    cfg = ExperimentConfig(experiment="flat-cy", seed=1, n=5)
    assert cfg.hash == ExperimentConfig(experiment="flat-cy", seed=1, n=5).hash
    assert cfg.hash != ExperimentConfig(experiment="flat-cy", seed=2, n=5).hash
    assert cfg.hash != ExperimentConfig(experiment="flat-cy", seed=1, n=6).hash
    assert cfg.hash != ExperimentConfig(experiment="pythagoras", seed=1, n=5).hash


@pytest.mark.parametrize("experiment, argv", [
    ("harmonicity", ["--rel-tl", "1e-3"]),
    ("harmonicity", ["--dim", "3"]),
    ("harmonicity", ["--sed", "5"]),
    # rays and plateau sampler exist only for N = 3 and stratum (0, 1, 2);
    # these keys once crashed or reported a false FAIL
    ("decay-scan", ["--dim", "4"]),
    ("glue-regions", ["--dim", "4"]),
    ("glue-regions", ["--subset", "0,1,3"]),
    # criterion 05's form and bumps are fixed data in ghlab.checks
    ("weak-chern", ["--A", "[[1,0],[0,1]]"]),
    ("weak-chern", ["--placements", "[]"]),
    # the decay rays and the plateau sampler are built for the identity form
    ("decay-scan", ["--A", "[[2,0,0],[0,1,0],[0,0,1]]"]),
    ("glue-regions", ["--A", "[[2,0,0],[0,1,0],[0,0,1]]"]),
    # tolerances and criterion inputs are fixed in ghlab.checks, so no
    # flag can loosen a verdict
    ("pythagoras", ["--tol", "1.0"]),
    ("integrability", ["--rel_tol", "1e9"]),
    ("gamma-sum", ["--cases", "[]"]),
], ids=["param-typo", "unread-param", "top-level-typo", "decay-dim", "glue-dim",
        "glue-subset", "weak-A", "weak-placements", "decay-A", "glue-A",
        "pythagoras-tol", "integrability-rel-tol", "gamma-cases"])
def test_config_typos_rejected(capsys, experiment, argv):
    # --out, --seed and --n are the only flags: a misspelt one, or a knob
    # the config file once held, is refused rather than ignored
    _refused_flags(capsys, experiment, argv)


@pytest.mark.parametrize("experiment, argv", [
    ("flat-cy", ["--dims"]),
    ("flat-cy", ["--dims", "0"]),
    ("flat-cy", ["--dims", "3"]),
    ("harmonicity", ["--dims", "3.0"]),
    ("integrability", ["--dim", "3"]),
    ("eigen-interval", ["--dim", "0"]),
], ids=["empty-dims", "zero-dims", "string-dims", "float-dims", "string-dim", "zero-dim"])
def test_bad_dimensions_rejected(capsys, experiment, argv):
    # each runner's dimensions are literals in its body; no flag sets one
    _refused_flags(capsys, experiment, argv)


@pytest.mark.parametrize("argv", [["--n", "-1"], ["--n", "0"]],
                         ids=["flag-negative", "flag-zero"])
def test_sample_counts_below_one_rejected(tmp_path, argv):
    # a count below 1 would pass every row over zero samples
    with pytest.raises(SystemExit, match=r"sample count n -?\d below 1 for flat-cy"):
        main(["flat-cy", *argv, "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value", ["five", "2.5"], ids=["string-n", "float-n"])
def test_sample_counts_of_the_wrong_type_rejected(tmp_path, capsys, value):
    # argparse refuses a count that is no integer before anything runs
    with pytest.raises(SystemExit):
        main(["pythagoras", "--n", value, "--out", str(tmp_path)])
    assert f"argument --n: invalid int value: '{value}'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value, message", [
    ("five", "argument --seed: invalid int value: 'five'"),
    ("1.5", "argument --seed: invalid int value: '1.5'"),
    ("-1", "seed -1 below 0 for pythagoras"),
], ids=["string-seed", "float-seed", "negative-seed"])
def test_configs_of_the_wrong_shape_rejected(tmp_path, capsys, value, message):
    # a seed that is no integer, or a negative one, once ended in numpy's
    # traceback
    with pytest.raises(SystemExit) as exc:
        main(["pythagoras", "--seed", value, "--out", str(tmp_path)])
    assert message in f"{exc.value.code}{capsys.readouterr().err}"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment, argv, unread", [
    ("extension-profile", ["--n", "3", "--seed", "7"], "n, seed"),
    ("weak-chern", ["--seed", "7"], "seed"),
    ("decay-scan", ["--seed", "20240817"], "seed"),
    ("gamma-sum", ["--n", "3"], "n"),
    ("logz-growth", ["--n", "3"], "n"),
], ids=["profile-flags", "weak-seed-flag", "decay-seed-flag", "gamma-n-flag",
        "logz-n-flag"])
def test_unread_settings_rejected(tmp_path, experiment, argv, unread):
    # each was once ignored: the run wrote the values of a run without it
    with pytest.raises(SystemExit, match=rf"setting\(s\) {unread} unread by {experiment}"):
        main([experiment, *argv, "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.csv"))


def _runner_tree(exp):
    return ast.parse(textwrap.dedent(inspect.getsource(exp.run)))


def _cfg_reads(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}


def test_declared_settings_are_what_each_runner_reads():
    # a runner reads the sample count as cfg.n and the seed through rng;
    # it registers a default for exactly those
    for name, exp in EXPERIMENTS.items():
        tree = _runner_tree(exp)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        want = {"n"} & _cfg_reads(tree) | ({"seed"} if "rng" in names else set())
        assert {k for k in ("n", "seed") if getattr(exp, k) is not None} == want, name


def test_verdict_params_are_gone():
    # no knob returns: a registration holds only its runner and its
    # acceptance run's seed and count, and a runner reads of its config only
    # the count and what labels its rows
    for name, exp in EXPERIMENTS.items():
        assert exp._fields == ("run", "seed", "n"), name
        assert _cfg_reads(_runner_tree(exp)) <= {"n", "experiment", "hash"}, name
