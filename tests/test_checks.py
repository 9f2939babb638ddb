import numpy as np
import pytest

from ghlab import checks, kernels
from ghlab.quadrature import QuadratureSpec


@pytest.mark.parametrize("N, seed", [(3, 401), (4, 402)])
def test_kernel_laplacian_is_one_batch_per_kernel(monkeypatch, N, seed):
    # every point's stencil goes into one kernel batch.  At N = 3 each row
    # is a closed form; at N = 4 these points lie farther apart than half
    # a sheet distance, so the batch splits into the per-point grids.
    # Either way the worst value is bitwise the per-point worst.
    rng = np.random.default_rng(seed)
    A = checks.random_spd(rng, N)
    quad = QuadratureSpec()
    pts = [checks.off_locus_point(rng, A) for _ in range(4)]
    calls = []
    batch = kernels.alpha_batch

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return batch(*args, **kwargs)

    monkeypatch.setattr(kernels, "alpha_batch", counted)
    for labels in [(0, 1), (1, 2)]:
        spec = kernels.KernelSpec(A, labels)
        calls.clear()
        worst = checks.kernel_laplacian(spec, quad, pts)
        assert calls == [len(pts) * (1 + 4 * (N + 2))]
        assert worst == max(checks.kernel_laplacian(spec, quad, [p]) for p in pts)
