"""Acceptance suite: twelve numbered criteria, one verdict line each.

Every criterion prints ``ACCEPTANCE nn PASS/FAIL ...`` with its measured
worst value, tolerance, and wall time, then asserts.  Budgets are generous
on purpose; the printed time is informational.  The samplers, residuals,
tolerances, quadrature specs and fixed inputs live in ``ghlab.checks``,
shared with the CLI; this file holds only the seeds and sample counts.
"""

import time

import numpy as np
import pytest

from ghlab.checks import off_locus_point, random_point, random_spd
from ghlab.geometry import QuadForm
from ghlab import checks, glue, kernels


class Verdict:
    def __init__(self, capsys):
        self.capsys = capsys
        self.t0 = time.time()

    def report(self, num, ok, text):
        line = (f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {text} "
                f"[{time.time() - self.t0:.1f}s]")
        with self.capsys.disabled():
            print(line)
        assert ok, line


@pytest.fixture
def verdict(capsys):
    return Verdict(capsys)


def test_01_flat_background_volume_identity(verdict):
    rng = np.random.default_rng(101)
    worst = checks.flat_volume_gap(
        [random_point(rng, N, eta_lo=0.0, eta_hi=2.0)
         for N in range(1, 6) for _ in range(1000)])
    tol = checks.FLAT_VOLUME_TOL
    verdict.report(1, worst <= tol,
                   f"flat model volume identity, 5x1000 points: "
                   f"max |det V - W| = {worst:.2e} (tol {tol:g})")


def test_02_one_slot_model_exact(verdict):
    rng = np.random.default_rng(102)
    pts = [random_point(rng, 1, eta_lo=0.05) for _ in range(100)]
    worst = max(checks.one_slot_gaps(QuadForm(np.array([[checks.ONE_SLOT_FORM]])),
                                     checks.QUAD, pts))
    tol = checks.ONE_SLOT_TOL
    verdict.report(2, worst <= tol,
                   f"one-slot model: kernel closed form, volume identity and "
                   f"vanishing defect, 100 points: max gap = {worst:.2e} "
                   f"(tol {tol:g})")


def test_03_restricted_kernel_closed_form(verdict):
    rng = np.random.default_rng(103)
    worst = max(checks.restricted_gap(checks.restricted_cases(rng, N, 100),
                                      checks.QUAD)
                for N in (2, 3, 4))
    tol = checks.RESTRICTED_TOL
    verdict.report(3, worst <= tol,
                   f"restricted kernels vs closed form, N in {{2,3,4}} x 100: "
                   f"max rel gap = {worst:.2e} (tol {tol:g})")


def test_04_harmonicity_and_gradient_relations(verdict):
    rng = np.random.default_rng(104)
    A = random_spd(rng, 3)
    pts = [off_locus_point(rng, A) for _ in range(50)]
    worst_h = max(checks.kernel_laplacian(kernels.KernelSpec(A, labels), checks.QUAD, pts)
                  for labels in [(0, 1), (1, 2)])
    worst_c = max(checks.gradient_relations(A, checks.QUAD, pts))
    tol = checks.HARMONIC_TOL
    verdict.report(4, max(worst_h, worst_c) <= tol,
                   f"kernel harmonicity ({worst_h:.2e}) and gradient "
                   f"relations ({worst_c:.2e}), 50 points, N=3 (tol {tol:g})")


def test_05_weak_distributional_charge(verdict):
    worst = max(res.rel_gap for res in checks.weak_charge_checks())
    tol = checks.WEAK_TOL
    verdict.report(5, worst <= tol,
                   f"weak charge identity, two axis bumps and one pair bump: "
                   f"max rel gap = {worst:.2e} (tol {tol:g})")


def test_06_decay_exponent_windows(verdict):
    rays = checks.decay_exponents()
    parts = [f"{label}: {got:.3f} (want {want}+-{win})"
             for label, got, want, win, _ in rays]
    verdict.report(6, all(ok for *_, ok in rays),
                   "volume-defect decay exponents, N=3: " + "; ".join(parts))


def test_07_projection_geometry(verdict):
    rng = np.random.default_rng(107)
    worst_p = checks.nested_projection_gap(checks.nested_cases(rng, 500))
    worst_e = max(0.0, checks.schur_eigen_violation(checks.eigen_cases(rng, 100)))
    ok = worst_p <= checks.PROJECTION_TOL and worst_e <= checks.EIGEN_TOL
    verdict.report(7, ok,
                   f"orthogonal splitting of nested projections "
                   f"({worst_p:.2e}, tol {checks.PROJECTION_TOL:g}) and transverse-form "
                   f"eigenvalue interval (violation {worst_e:.2e})")


def test_08_gamma_sum_identity(verdict):
    rng = np.random.default_rng(108)
    cases = list(zip(checks.GAMMA_CASES_N2, checks.gamma_sum_gaps(rng)))
    parts = [f"{n_act} slot(s): {worst:.2e} (tol {tol})"
             for (n_act, _, tol), worst in cases]
    verdict.report(8, all(worst <= tol for (*_, tol), worst in cases),
                   "fiber derivative sum rule: " + "; ".join(parts))


def test_09_moduli_product_and_log_sum(verdict):
    rng = np.random.default_rng(109)
    A = QuadForm(np.array([[1.8, 0.4], [0.4, 1.1]]))
    worst_prod = checks.product_identity_gap(
        A, checks.GAMMA_QUAD, [random_point(rng, 2) for _ in range(10)])
    worst_sum = checks.log_sum_gap(
        A, checks.GAMMA_QUAD, [random_point(rng, 2) for _ in range(3)])
    ok = worst_prod <= checks.PRODUCT_TOL and worst_sum <= checks.LOG_SUM_TOL
    verdict.report(9, ok,
                   f"one-slot moduli, hence their product ({worst_prod:.2e}, tol "
                   f"{checks.PRODUCT_TOL:g}) and log-sum identity ({worst_sum:.2e}, "
                   f"tol {checks.LOG_SUM_TOL:g})")


def test_10_glue_weight_plateaus(verdict):
    rng = np.random.default_rng(110)
    A = QuadForm.identity(3)
    worst_core = checks.plateau_gap(
        A, checks.plateau_points(rng, A, 1000, "core"), 1.0)
    worst_outer = checks.plateau_gap(
        A, checks.plateau_points(rng, A, 1000, "outer"), 0.0)
    ok = worst_core == 0.0 and worst_outer == 0.0
    verdict.report(10, ok,
                   f"glue weight exactly 1 on 1000 deep-core points "
                   f"(max gap {worst_core:.1e}) and exactly 0 on 1000 "
                   f"outer-band points (max {worst_outer:.1e})")


def test_11_extension_profile(verdict):
    prof = glue.ExtensionProfile(*checks.PROFILE)
    M = prof.M
    worst = max(checks.profile_piece_gaps(prof, np.linspace(1.0, M - 1.0, 20),
                                          np.linspace(M + 1.0, 400.0, 20)))
    rep = glue.profile_condition_check(prof)
    ok = worst <= checks.PIECE_TOL and rep.positive
    verdict.report(11, ok,
                   f"extension profile pieces exact to {worst:.1e} "
                   f"(tol {checks.PIECE_TOL:g}); comparison margin positive at wide floor "
                   f"(min log-gap {rep.min_loggap:.2f})")


def test_12_integrability_residuals(verdict):
    rng = np.random.default_rng(112)
    A = random_spd(rng, 3)
    worst1, worst2 = checks.integrability_gap(
        A, checks.QUAD, [off_locus_point(rng, A) for _ in range(20)])
    tol = checks.INTEGRABILITY_TOL
    verdict.report(12, max(worst1, worst2) <= tol,
                   f"field integrability, 20 points, N=3: first identity "
                   f"{worst1:.2e}, second identity {worst2:.2e} (tol {tol:g})")
