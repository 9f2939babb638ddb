import json
import os

import pytest

from ghlab.cli import EXPERIMENTS, ExperimentConfig, main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def test_registry_complete():
    assert len(EXPERIMENTS) == 14


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


def test_failure_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    # impossible tolerance: the run must report failure through the exit code
    cfg.write_text(json.dumps({"params": {"tol": 1e-30}}))
    code, out = run(tmp_path, "pythagoras", "--config", str(cfg), "--n", "10")
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


def test_threads_do_not_change_results(tmp_path, monkeypatch):
    # harmonicity maps its points over the GHLAB_THREADS worker pool
    monkeypatch.setenv("GHLAB_THREADS", "1")
    _, out1 = run(tmp_path / "a", "harmonicity", "--n", "2")
    monkeypatch.setenv("GHLAB_THREADS", "4")
    _, out2 = run(tmp_path / "b", "harmonicity", "--n", "2")
    assert (out1 / "harmonicity.csv").read_bytes() == \
        (out2 / "harmonicity.csv").read_bytes()


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


@pytest.mark.parametrize("data, message", [
    ({"params": {"rel_tl": 1e-3}}, r"param\(s\) rel_tl for"),     # rel_tol
    ({"params": {"dims": [3], "dim": 3}}, r"param\(s\) dim for"),  # reads dims
    ({"sed": 5}, r"key\(s\) sed in"),                              # seed
], ids=["param-typo", "unread-param", "top-level-typo"])
def test_config_typos_rejected(tmp_path, data, message):
    # an unknown key would otherwise fall back to its default silently
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=message):
        main(["harmonicity", "--config", str(cfg), "--n", "1"])


def test_shipped_configs_pass_validation():
    import pathlib

    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for p in sorted(cfg_dir.glob("*.json")):
        cfg = ExperimentConfig.load(p.stem, str(p), None, None)
        assert cfg.params == json.loads(p.read_text()).get("params", {})
