"""The in-process A/B probe, ``python -m tests.layer_ab``, run on this tree
against itself: its outputs agree bitwise, and it prints one row per layer;
a layer whose outputs differ fails the run."""

import layer_ab


def test_probe_runs_this_tree_against_itself(capsys):
    assert layer_ab.main([str(layer_ab.HERE), "wedge"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.split()[0] == "layer"
    name, *times, ratio, equal = row.split()
    assert (name, equal, len(times)) == ("wedge", "equal", 4)
    assert min(map(float, times)) > 0.0 and float(ratio) > 0.0


def test_probe_refuses_unknown_layers(capsys):
    assert layer_ab.main([str(layer_ab.HERE), "no-such-layer"]) == 2
    assert "unknown layers" in capsys.readouterr().err


def test_probe_runs_a_stratum_layer(capsys):
    assert layer_ab.main([str(layer_ab.HERE), "glue_weight"]) == 0
    name, *_, equal = capsys.readouterr().out.strip().splitlines()[1].split()
    assert (name, equal) == ("glue_weight", "equal")


def test_probe_exits_1_when_a_layer_differs(capsys, monkeypatch):
    report = {"wedge": {"this": [1e-6], "other": [1e-6], "equal": True},
              "table": {"this": [1e-6], "other": [2e-6], "equal": False}}
    monkeypatch.setattr(layer_ab, "probe", lambda other, layers: report)
    assert layer_ab.main([str(layer_ab.HERE), "wedge", "table"]) == 1
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split()[-1] for row in rows] == ["equal", "DIFFER"]
