"""Reproducibility of the benchmark's inputs and traced counters.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402
from worker import closed_loop  # noqa: E402
from workloads import WORKLOADS, CheckLog  # noqa: E402

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    assert WORKLOADS[name](7).digest() == WORKLOADS[name](7).digest()


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_other_inputs(name):
    assert WORKLOADS[name](7).digest() != WORKLOADS[name](8).digest()


def _traced_counts(name: str, seed: int, points: int) -> dict:
    """Counters of a traced pass over pool entries 1..points, as the traced
    run takes them."""
    wl = WORKLOADS[name](seed)
    tracer = Tracer()
    tracer.install()
    try:
        run = closed_loop(wl, CheckLog(), 1, 0.0, points, tracer)
    finally:
        tracer.uninstall()
    assert len(run["times"]) == points and not run["failed_at"]
    metrics = tracer.layer_metrics(set(range(1, 1 + points)))
    return {k: v for k, v in metrics.items()
            if not (k.endswith("_s") or k.endswith("ns_per_node"))}


@pytest.mark.parametrize("name,points",
                         [("field-n3", 1), ("holo-n2", 2), ("strata-n4", 4)])
def test_same_seed_gives_identical_traced_counts(name, points):
    first = _traced_counts(name, 3, points)
    assert first == _traced_counts(name, 3, points)
    if name == "strata-n4":
        assert first["quadrature.calls"] == 0 and first["locus.calls"] > 0
    else:
        assert first["quadrature.calls"] > 0 and first["quadrature.nodes"] > 0


def test_uninstall_restores_the_library():
    import ghlab.ansatz
    import ghlab.kernels
    import ghlab.locus
    import ghlab.quadrature

    before = (ghlab.kernels.power_kernel_integral,
              ghlab.ansatz.FirstOrderField.jet, ghlab.locus.schur_complement)
    tracer = Tracer()
    tracer.install()
    assert ghlab.kernels.power_kernel_integral is not before[0]
    tracer.uninstall()
    assert (ghlab.kernels.power_kernel_integral,
            ghlab.ansatz.FirstOrderField.jet,
            ghlab.locus.schur_complement) == before
    assert before[0] is ghlab.quadrature.power_kernel_integral
