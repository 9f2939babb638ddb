import json

import pytest

from ghlab import checks
from ghlab.cli import EXPERIMENTS, ExperimentConfig, main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def test_registry_complete():
    assert len(EXPERIMENTS) == 15


def test_flat_cy_writes_csv_and_sidecar(tmp_path):
    code, out = run(tmp_path, "flat-cy", "--n", "20")
    assert code == 0
    csv_text = (out / "flat-cy.csv").read_text()
    assert csv_text.splitlines()[0].startswith("experiment,case,value")
    assert csv_text.count("true") == 5
    side = json.loads((out / "flat-cy.json").read_text())
    assert side["schema_version"] == 1
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


def test_config_file_applies(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": 5, "n": 7}))
    code, out = run(tmp_path, "eigen-interval", "--config", str(cfg))
    assert code == 0
    side = json.loads((out / "eigen-interval.json").read_text())
    assert side["config"]["seed"] == 5
    assert side["config"]["n"] == 7


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


def test_bad_schema_version(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(SystemExit):
        main(["flat-cy", "--config", str(cfg)])


def test_config_hash_stability():
    cfg = ExperimentConfig(experiment="flat-cy", seed=1, n=5, params={"a": 1})
    assert cfg.hash == ExperimentConfig(experiment="flat-cy", seed=1, n=5,
                                        params={"a": 1}).hash
    assert cfg.hash != ExperimentConfig(experiment="flat-cy", seed=2, n=5,
                                        params={"a": 1}).hash


def test_shipped_configs_load_and_match_experiments():
    import pathlib

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    found = {p.stem for p in cfg_dir.glob("*.json")}
    assert found == set(EXPERIMENTS)
    for p in cfg_dir.glob("*.json"):
        data = json.loads(p.read_text())
        assert data.get("schema_version") == 1


@pytest.mark.parametrize("experiment, data, message", [
    ("harmonicity", {"params": {"rel_tl": 1e-3}}, r"param\(s\) rel_tl for"),  # rel_tol
    ("harmonicity", {"params": {"dims": [3], "dim": 3}}, r"param\(s\) dim for"),  # dims
    ("harmonicity", {"sed": 5}, r"key\(s\) sed in"),                           # seed
    # rays and plateau sampler exist only for N = 3 and stratum (0, 1, 2);
    # these keys once crashed or reported a false FAIL
    ("decay-scan", {"params": {"dim": 4}}, r"param\(s\) dim for"),
    ("glue-regions", {"params": {"dim": 4}}, r"param\(s\) dim for"),
    ("glue-regions", {"params": {"subset": [0, 1, 3]}}, r"param\(s\) subset for"),
    # criterion 05's form and bumps are fixed data in ghlab.checks
    ("weak-chern", {"params": {"A": [[1.0, 0.0], [0.0, 1.0]]}}, r"param\(s\) A for"),
    ("weak-chern", {"params": {"placements": []}}, r"param\(s\) placements for"),
    # the decay rays and the plateau sampler are built for the identity form
    ("decay-scan", {"params": {"A": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
     r"param\(s\) A for"),
    ("glue-regions", {"params": {"A": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
     r"param\(s\) A for"),
    # tolerances and criterion inputs are fixed in ghlab.checks, so no
    # config can loosen a verdict
    ("pythagoras", {"params": {"tol": 1.0}}, r"param\(s\) tol for"),
    ("integrability", {"params": {"rel_tol": 1e9}}, r"param\(s\) rel_tol for"),
    ("gamma-sum", {"params": {"cases": []}}, r"param\(s\) cases for"),
], ids=["param-typo", "unread-param", "top-level-typo", "decay-dim", "glue-dim",
        "glue-subset", "weak-A", "weak-placements", "decay-A", "glue-A",
        "pythagoras-tol", "integrability-rel-tol", "gamma-cases"])
def test_config_typos_rejected(tmp_path, experiment, data, message):
    # an unknown key would otherwise fall back to its default silently
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=message):
        main([experiment, "--config", str(cfg), "--n", "1"])


@pytest.mark.parametrize("experiment, argv, data, key", [
    ("flat-cy", ["--n", "-1"], {}, "n"),
    ("flat-cy", ["--n", "0"], {}, "n"),
    ("pythagoras", [], {"n": 0}, "n"),
    ("glue-regions", ["--n", "5"], {"params": {"covering_points": 0}}, "covering_points"),
    ("logz-growth", [], {"params": {"points_n1": -1}}, "points_n1"),
    ("logz-growth", [], {"params": {"points_n2": 0}}, "points_n2"),
], ids=["flag-negative", "flag-zero", "config-zero", "covering-points",
        "points-n1", "points-n2"])
def test_sample_counts_below_one_rejected(tmp_path, experiment, argv, data, key):
    # a count below 1 would pass every row over zero samples, or fall back
    # to the default count while the sidecar records it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=rf"sample count\(s\) {key} below 1"):
        main([experiment, "--config", str(cfg), *argv, "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment, data, message", [
    ("flat-cy", {"dims": []}, r"param dims \[\] not a non-empty list"),
    ("flat-cy", {"dims": [0]}, r"param dims \[0\] not a non-empty list of integers of at least 1"),
    ("flat-cy", {"dims": "3"}, r"param dims '3' not a non-empty list"),
    ("harmonicity", {"dims": [3.0]}, r"param dims \[3\.0\] not a non-empty list"),
    ("commutativity", {"dim": "3"}, r"param dim '3' not an integer of at least 1"),
    ("logz-growth", {"dim": 0}, r"param dim 0 not an integer of at least 1"),
], ids=["empty-dims", "zero-dims", "string-dims", "float-dims", "string-dim", "zero-dim"])
def test_bad_dimensions_rejected(tmp_path, experiment, data, message):
    # an empty list passed over zero rows; the others ended in a numpy
    # ValueError or a TypeError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": data}))
    with pytest.raises(SystemExit, match=message):
        main([experiment, "--config", str(cfg), "--n", "1", "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment, argv, data, key", [
    ("flat-cy", [], {"n": "5"}, "n"),
    ("pythagoras", [], {"n": 2.5}, "n"),
    ("pythagoras", [], {"n": True}, "n"),
    ("glue-regions", ["--n", "5"], {"params": {"covering_points": 3.0}}, "covering_points"),
    ("logz-growth", [], {"params": {"points_n1": "2"}}, "points_n1"),
], ids=["string-n", "float-n", "bool-n", "float-covering-points", "string-points-n1"])
def test_sample_counts_of_the_wrong_type_rejected(tmp_path, experiment, argv, data, key):
    # a string once ended in a TypeError traceback, a float passed the
    # check and failed later in range, and True ran as one sample
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=rf"sample count\(s\) {key} not an integer"):
        main([experiment, "--config", str(cfg), *argv, "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("data, argv, message", [
    ([1, 2], [], r"config in .* is not a JSON object"),
    ({"params": None}, [], r"config key params is not an object"),
    ({"params": [1]}, [], r"config key params is not an object"),
    ({"seed": "5"}, [], r"seed '5' not an integer"),
    ({"seed": 1.5}, [], r"seed 1\.5 not an integer"),
    ({"seed": True}, [], r"seed True not an integer"),
    ({}, ["--seed", "-1"], r"seed -1 not an integer of at least 0"),
], ids=["list-config", "null-params", "list-params", "string-seed", "float-seed",
        "bool-seed", "negative-seed"])
def test_configs_of_the_wrong_shape_rejected(tmp_path, data, argv, message):
    # each once ended in a traceback, and a true seed ran as seed 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=message):
        main(["pythagoras", "--config", str(cfg), *argv, "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.csv"))


def test_verdict_params_are_gone():
    # only dimensions and sample counts are settable
    from ghlab.cli import EXPERIMENT_PARAMS

    params = sorted(k for keys in EXPERIMENT_PARAMS.values() for k in keys)
    assert len(params) == 11
    assert set(params) == {"covering_points", "dim", "dims", "points_n1", "points_n2"}


def test_shipped_configs_pass(tmp_path):
    import pathlib

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for p in sorted(cfg_dir.glob("*.json")):
        assert main([p.stem, "--config", str(p), "--out", str(tmp_path)]) == 0, p.stem


def test_shipped_configs_pass_validation():
    import pathlib

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for p in sorted(cfg_dir.glob("*.json")):
        cfg = ExperimentConfig.load(p.stem, str(p), None, None)
        assert cfg.params == json.loads(p.read_text()).get("params", {})
