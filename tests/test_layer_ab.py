"""The in-process A/B probe, ``python -m tests.layer_ab``, run on this tree
against itself: its outputs agree bitwise, and it prints one row per layer."""

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
