import numpy as np
import pytest

from ghlab import ansatz, checks, frame, glue, kernels
from ghlab.geometry import QuadForm, batch_from_vectors
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


def _criterion_12_inputs():
    # criterion 12's draw: seed 112, one form at N = 3, 20 off-locus points
    rng = np.random.default_rng(112)
    A = checks.random_spd(rng, 3)
    return A, [checks.off_locus_point(rng, A) for _ in range(20)]


def test_integrability_gap_is_one_engine_call(monkeypatch):
    # the 20 points' stencils (420 rows) go into one field jet, and the 6
    # kernels at N = 3 share everything but their cone matrix, so all
    # 2520 (kernel, row) pairs are one closed-form engine call
    A, pts = _criterion_12_inputs()
    calls = []
    engine = kernels.power_kernel_integral
    monkeypatch.setattr(kernels, "power_kernel_integral",
                        lambda *a, **k: calls.append(1) or engine(*a, **k))
    checks.integrability_gap(A, QuadratureSpec(), pts)
    assert len(calls) == 1


def test_integrability_residual_is_a_row_of_the_batch():
    A, pts = _criterion_12_inputs()
    fld = ansatz.FirstOrderField(A, QuadratureSpec())
    mu, eta = batch_from_vectors(np.array([p.as_vector() for p in pts]))
    _, res, scale = frame.integrability_batch(fld, mu, eta)
    for b, p in enumerate(pts):
        one = frame.integrability_residual(fld, p)
        assert one.first_relative == res[0, b] / scale[0, b]
        assert one.second_relative == pytest.approx(res[1, b] / scale[1, b],
                                                    rel=1e-9)


# Negative controls: each criterion's shared check, fed a defect of
# stated size, must report a FAIL.

def _criterion_10_points():
    # criterion 10's draw: seed 110, 1000 core points then 1000 outer ones
    rng = np.random.default_rng(110)
    A = QuadForm.identity(3)
    return A, checks.plateau_points(rng, A, 1000, "core"), checks.plateau_points(rng, A, 1000, "outer")


def test_plateau_gap_flags_a_cutoff_scaled_below_one(monkeypatch):
    A, core, _ = _criterion_10_points()
    chi = glue.cutoff
    monkeypatch.setattr(glue, "cutoff", lambda x: (1.0 - 1e-12) * chi(x))
    assert checks.plateau_gap(A, core, 1.0) > 0.0


def test_plateau_gap_flags_a_cutoff_shifted_above_zero(monkeypatch):
    A, _, outer = _criterion_10_points()
    chi = glue.cutoff
    monkeypatch.setattr(glue, "cutoff", lambda x: chi(x) + 1e-12)
    assert checks.plateau_gap(A, outer, 0.0) > 0.0


def test_piece_gaps_flag_a_scaled_left_piece(monkeypatch):
    # criterion 11's profile and grids, h's left piece scaled by 1 + 1e-11
    prof = glue.ExtensionProfile(*checks.PROFILE)
    h, M = prof.h, prof.M
    monkeypatch.setattr(prof, "h", lambda t: h(t) * (1.0 + 1e-11 * (np.asarray(t) <= M - 1.0)))
    gaps = checks.profile_piece_gaps(prof, np.linspace(1.0, M - 1.0, 20),
                                     np.linspace(M + 1.0, 400.0, 20))
    assert max(gaps) > checks.PIECE_TOL


def test_seam_jump_flags_a_shifted_bridge(monkeypatch):
    f_bridge = glue.ExtensionProfile._f_bridge
    monkeypatch.setattr(glue.ExtensionProfile, "_f_bridge",
                        lambda self, t: f_bridge(self, t) + 1e-9)
    assert checks.profile_seam_jump(glue.ExtensionProfile(*checks.PROFILE)) > checks.SEAM_TOL


def _criterion_04_inputs():
    # criterion 04's draw: seed 104, one form at N = 3, 50 off-locus points
    rng = np.random.default_rng(104)
    A = checks.random_spd(rng, 3)
    return A, [checks.off_locus_point(rng, A) for _ in range(50)]


def test_kernel_laplacian_flags_a_non_harmonic_term(monkeypatch):
    # criterion 04's draw with eps mu_1^2, eps = 1e-5, added to the axis
    # kernel's values and gradients: its A-Laplacian is 2 eps (A^-1)_11
    A, pts = _criterion_04_inputs()
    batch = kernels.alpha_batch

    def with_term(spec, quad, mu, eta, want_gradient=False):
        kv = batch(spec, quad, mu, eta, want_gradient)
        kv.value = kv.value + 1e-5 * mu[:, 0] ** 2
        if want_gradient:
            kv.gradient[:, 0] += 2e-5 * mu[:, 0]
        return kv

    monkeypatch.setattr(kernels, "alpha_batch", with_term)
    spec = kernels.KernelSpec(A, (0, 1))
    assert checks.kernel_laplacian(spec, checks.QUAD, pts) > checks.HARMONIC_TOL


def test_gradient_relations_flag_a_broken_pair_symmetry(monkeypatch):
    # criterion 04's draw with d_3 alpha_12 scaled by 1 + 2e-3, so it no
    # longer equals d_2 alpha_13
    A, pts = _criterion_04_inputs()
    family = kernels.alpha_family

    def skewed(*args, **kwargs):
        labels, kv = family(*args, **kwargs)
        kv.gradient[labels.index((1, 2)), :, 2] *= 1.0 + 2e-3
        return labels, kv

    monkeypatch.setattr(kernels, "alpha_family", skewed)
    pair, _ = checks.gradient_relations(A, checks.QUAD, pts)
    assert pair > checks.HARMONIC_TOL


def _scale_prefactor(monkeypatch, scale):
    # every family built from here on; the ones kept with older forms keep
    # their prefactor, so each control draws fresh forms
    pref = kernels.kernel_prefactor
    monkeypatch.setattr(kernels, "kernel_prefactor", lambda n, det_q: scale * pref(n, det_q))


def test_restricted_gap_flags_a_scaled_prefactor(monkeypatch):
    # criterion 03's draw with every kernel's prefactor scaled by 1 + 1e-7
    _scale_prefactor(monkeypatch, 1.0 + 1e-7)
    rng = np.random.default_rng(103)
    worst = max(checks.restricted_gap(checks.restricted_cases(rng, N, 100), checks.QUAD)
                for N in (2, 3, 4))
    assert worst > checks.RESTRICTED_TOL


def test_weak_charge_checks_flag_a_scaled_prefactor(monkeypatch):
    # criterion 05's bumps with the kernel's prefactor scaled by 1.02
    _scale_prefactor(monkeypatch, 1.02)
    assert max(res.rel_gap for res in checks.weak_charge_checks()) > checks.WEAK_TOL
