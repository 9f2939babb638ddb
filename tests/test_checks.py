import math

import numpy as np
import pytest

from ghlab import ansatz, checks, frame, glue, holo, kernels, locus
from ghlab.geometry import BasePoint
from test_acceptance import criterion_rows


@pytest.mark.parametrize("N, seed", [(3, 401), (4, 402)])
def test_kernel_laplacian_is_one_batch_per_kernel(monkeypatch, N, seed):
    # every point goes into one Hessian batch of the kernel, two engine
    # calls of one row per point: its cone at p, p + 2 and p + 4, and its own
    # N - 1 faces at p and p + 2, whose closed forms (d <= 2) return the
    # four-label strata, their faces, as the field's Hessians take them.
    # At N = 3 each row is a closed form; at N = 4 these points lie farther
    # apart than half a sheet distance, so the swept cone splits into the
    # per-point grids.  Either way the worst value is bitwise the
    # per-point worst.
    rng = np.random.default_rng(seed)
    A = checks.random_spd(rng, N)
    pts = [checks.off_locus_point(rng, A) for _ in range(4)]
    calls, rows = [], []
    hessian, engine = kernels.alpha_hessian, kernels.power_kernel_integral

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return hessian(*args, **kwargs)

    monkeypatch.setattr(kernels, "alpha_hessian", counted)
    monkeypatch.setattr(kernels, "power_kernel_integral",
                        lambda *a, **k: rows.append((len(a[4]), len(a[2]))) or engine(*a, **k))
    for labels in [(0, 1), (1, 2)]:
        spec = kernels.KernelSpec(A, labels)
        calls.clear()
        rows.clear()
        worst = checks.kernel_laplacian(spec, pts)
        assert calls == [len(pts)]
        assert rows == [(1, len(pts)), (N - 1, len(pts))]
        assert worst == max(checks.kernel_laplacian(spec, [p]) for p in pts)


def test_integrability_gap_is_one_hessian_call(monkeypatch):
    # per N, criterion 12's 20 points go into one Hessian batch of the
    # field's kernels, which share everything but their cone matrix: one
    # engine call for the K cones at p, p + 2 and p + 4, whose values at p
    # the Euler rows read, and one for their C(N + 1, 3) distinct faces,
    # the triple strata's cones, whose closed forms (d <= 2 at N = 3 and
    # 4) return the four-label strata, each of the 20 rows
    rows = []
    engine = kernels.power_kernel_integral
    monkeypatch.setattr(kernels, "power_kernel_integral",
                        lambda *a, **k: rows.append((len(a[4]), len(a[2]))) or engine(*a, **k))
    criterion_rows("12")
    assert rows == [(6, 20), (4, 20), (10, 20), (10, 20)]


def test_integrability_residual_is_a_row_of_the_batch(monkeypatch):
    # on the field and the batch of criterion 12's run
    seen = []
    batch = frame.integrability_batch
    monkeypatch.setattr(frame, "integrability_batch", lambda *a: seen.append(a) or batch(*a))
    criterion_rows("12")
    monkeypatch.undo()
    assert [fld.A.n for fld, _, _ in seen] == [3, 4]
    for fld, mu, eta in seen:
        res, scale, *_ = frame.integrability_batch(fld, mu, eta)
        # every row at N = 3; at N = 4, where each one-row call sweeps, three
        for b in range(len(mu) if fld.A.n == 3 else 3):
            one = frame.integrability_residual(fld, BasePoint(mu[b], eta[b]))
            assert one.first_relative == res[0, b] / scale[0, b]
            assert one.second_relative == pytest.approx(res[1, b] / scale[1, b],
                                                        rel=1e-9)


# Negative controls: each runs its criterion's acceptance entry with a
# defect of stated size, and the named rows must FAIL.

def failed(num: str) -> set[str]:
    return {key for key, r in criterion_rows(num).items() if not r.passed}


def test_flat_volume_gap_flags_a_scaled_w(monkeypatch):
    # W scaled by 1 + 1e-8; the smallest scaling flagged is about
    # 1 + 2.9e-11
    flat = ansatz.flat_field

    def scaled(p):
        res = flat(p)
        res.W *= 1.0 + 1e-8
        return res

    monkeypatch.setattr(ansatz, "flat_field", scaled)
    assert failed("01") == {f"flat-cy/N={N}" for N in range(1, 6)}


def test_one_slot_gaps_flag_a_scaled_closed_form(monkeypatch):
    # the one-slot closed form's D scaled by 1 + 1e-9, as |eta| scaled by
    # its square root; the smallest scaling flagged is about 1 + 8.8e-11
    closed = kernels.closed_form_axis
    monkeypatch.setattr(kernels, "closed_form_axis", lambda A, i, p: closed(
        A, i, BasePoint(p.mu, p.eta * math.sqrt(1.0 + 1e-9))))
    assert failed("02") == {"taubnut-exact/alpha-closed-form"}


def test_decay_exponents_flag_a_defect_growing_with_the_distance(monkeypatch):
    # each sampled volume defect multiplied by (1 + |p|_A), the distance
    # sqrt(mu^T A mu + det A |eta|^2) the fit measures against: every
    # exponent drops by about one.  A factor (1 + |p|_A)^0.114 already
    # takes the deep ray out of its window
    norms = []
    jet, sigma = ansatz.FirstOrderField.jet, ansatz.sigma_expansion

    def recording(self, mu, eta):
        norms[:] = np.sqrt(np.einsum("bi,ij,bj->b", mu, self.A.entries, mu)
                           + self.A.det * np.abs(eta) ** 2).tolist()
        return jet(self, mu, eta)

    def grown(A, v):
        se = sigma(A, v)
        se.relative_error *= 1.0 + norms.pop(0)
        return se

    monkeypatch.setattr(ansatz.FirstOrderField, "jet", recording)
    monkeypatch.setattr(ansatz, "sigma_expansion", grown)
    assert failed("06") == {"decay-scan/ray-generic", "decay-scan/ray-near-pair",
                            "decay-scan/ray-deep"}


def test_plateau_gap_flags_a_cutoff_scaled_below_one(monkeypatch):
    chi = glue.cutoff
    monkeypatch.setattr(glue, "cutoff", lambda x: (1.0 - 1e-12) * chi(x))
    assert "glue-regions/core-weight-one" in failed("10")


def test_plateau_gap_flags_a_cutoff_shifted_above_zero(monkeypatch):
    chi = glue.cutoff
    monkeypatch.setattr(glue, "cutoff", lambda x: chi(x) + 1e-12)
    assert "glue-regions/outer-weight-zero" in failed("10")


@pytest.mark.parametrize("defect", ["scaled", "off-symmetric"])
def test_nested_projection_gap_flags_a_perturbed_schur_block(monkeypatch, defect):
    # the full label set's Schur block (the N x N block that ends the
    # entries the pass reads) scaled by 1 + 1e-9, or with 1e-9 added above
    # its diagonal only
    table = locus._table

    def perturbed(A):
        T = table(A)
        G = T.pg[-A.n ** 2:].reshape(A.n, A.n)   # the full set is the last row
        if defect == "scaled":
            G *= 1.0 + 1e-9
        else:
            G[0, 1] += 1e-9
        return T

    monkeypatch.setattr(locus, "_table", perturbed)
    assert "pythagoras/nested-hulls" in failed("07")


def test_piece_gaps_flag_a_scaled_left_piece(monkeypatch):
    # h's left piece scaled by 1 + 1e-11
    h = glue.ExtensionProfile.h
    monkeypatch.setattr(glue.ExtensionProfile, "h", lambda self, t: h(self, t) * (
        1.0 + 1e-11 * (np.asarray(t) <= self.M - 1.0)))
    assert "extension-profile/piece-left" in failed("11")


def test_seam_jump_flags_a_shifted_bridge(monkeypatch):
    f_bridge = glue.ExtensionProfile._f_bridge
    monkeypatch.setattr(glue.ExtensionProfile, "_f_bridge",
                        lambda self, t: f_bridge(self, t) + 1e-9)
    assert "extension-profile/seam-continuity" in failed("11")


def test_kernel_laplacian_flags_a_non_harmonic_term(monkeypatch):
    # eps mu_1^2, eps = 1e-5, added to every kernel: its gradients gain
    # 2 eps mu_1 and its Hessians 2 eps at (mu_1, mu_1), so the axis
    # kernel's A-Laplacian is 2 eps (A^-1)_11
    hessian = kernels.alpha_hessian

    def with_term(A, quad, mu, eta, labels=None):
        labels, V, grad, hess = hessian(A, quad, mu, eta, labels)
        grad[..., 0] += 2e-5 * mu[:, 0]
        hess[..., 0, 0] += 2e-5
        return labels, V, grad, hess

    monkeypatch.setattr(kernels, "alpha_hessian", with_term)
    assert "harmonicity/N=3-axis" in failed("04")


def test_gradient_relations_flag_a_broken_pair_symmetry(monkeypatch):
    # d_3 alpha_12 scaled by 1 + 2e-3, so it no longer equals d_2 alpha_13
    family = kernels.alpha_family

    def skewed(*args, **kwargs):
        labels, kv = family(*args, **kwargs)
        if (1, 2) in labels:
            kv.gradient[labels.index((1, 2)), :, 2] *= 1.0 + 2e-3
        return labels, kv

    monkeypatch.setattr(kernels, "alpha_family", skewed)
    assert {"harmonicity/N=3-pair-symmetry", "harmonicity/N=4-pair-symmetry"} <= failed("04")


def test_criterion_04_draws_its_inputs_once(monkeypatch):
    # the Laplacian rows and the gradient relations of one N read the same
    # form and the same list of points, not a second draw of equal values
    seen = {"lap": [], "rel": []}
    laplacian, relations = checks.kernel_laplacian, checks.gradient_relations

    def spy_lap(spec, pts):
        seen["lap"].append((spec.A, pts))
        return laplacian(spec, pts)

    def spy_rel(A, pts):
        seen["rel"].append((A, pts))
        return relations(A, pts)

    monkeypatch.setattr(checks, "kernel_laplacian", spy_lap)
    monkeypatch.setattr(checks, "gradient_relations", spy_rel)
    criterion_rows("04")
    assert [A.n for A, _ in seen["rel"]] == [3, 4] and len(seen["lap"]) == 4
    for k, (A, pts) in enumerate(seen["rel"]):
        for A_lap, pts_lap in seen["lap"][2 * k:2 * k + 2]:
            assert A_lap is A and pts_lap is pts


def _scale_prefactor(monkeypatch, scale):
    # every family built from here on; the ones kept with older forms keep
    # their prefactor, so each control draws fresh forms
    pref = kernels.kernel_prefactor
    monkeypatch.setattr(kernels, "kernel_prefactor", lambda n, det_q: scale * pref(n, det_q))


def test_restricted_gap_flags_a_scaled_prefactor(monkeypatch):
    # every kernel's prefactor scaled by 1 + 1e-7
    _scale_prefactor(monkeypatch, 1.0 + 1e-7)
    assert failed("03") == {f"kernel-closedform/N={N}" for N in (2, 3, 4)}


def test_weak_charge_checks_flag_a_scaled_prefactor(monkeypatch):
    # the kernel's prefactor scaled by 1.02
    _scale_prefactor(monkeypatch, 1.02)
    assert failed("05") == {"weak-chern/bump-0-[0, 1]", "weak-chern/bump-1-[0, 2]",
                            "weak-chern/bump-2-[1, 2]"}


def _gamma_sum_failures(monkeypatch, defect):
    # the last gamma of each sum, gamma_n, passed through ``defect`` in the
    # family core that ``gamma_sum_check`` calls; these gammas are closed forms
    family = holo._gamma_family

    def broken(spec, labels, mu, eta):
        out = family(spec, labels, mu, eta)
        out.value[-1] = defect(out.value[-1])
        return out

    monkeypatch.setattr(holo, "_gamma_family", broken)
    return failed("08")


def test_gamma_sum_gaps_flag_a_dropped_gamma(monkeypatch):
    assert _gamma_sum_failures(monkeypatch, lambda g: 0.0 * g) == {"gamma-sum/n=1",
                                                                    "gamma-sum/n=2"}


@pytest.mark.parametrize("case, eps", [(0, 2e-3), (1, 2e-2)])
def test_gamma_sum_gaps_flag_a_scaled_gamma(monkeypatch, case, eps):
    # the smallest scalings flagged are about 1.07e-3 for one slot (tol
    # 1e-3) and 1.10e-2 for two (tol 1e-2): the gap is eps |gamma_n eta|
    failures = _gamma_sum_failures(monkeypatch, lambda g: (1.0 + eps) * g)
    assert f"gamma-sum/n={case + 1}" in failures


def _criterion_09_failures(monkeypatch, v_scale=1.0, gamma_scale=1.0):
    # the model field's v, the first-order v of the reduced form that each
    # log_z leg reads, and the last gamma of each family call scaled; these
    # are closed forms
    first_order_v, family = holo._first_order_v, holo.gamma_family

    def scaled_v(*args):
        v, err = first_order_v(*args)
        return v_scale * v, err

    def scaled_family(spec, labels, mu, eta):
        out = family(spec, labels, mu, eta)
        out.value[-1] = gamma_scale * out.value[-1]
        return out

    monkeypatch.setattr(holo, "_first_order_v", scaled_v)
    monkeypatch.setattr(holo, "gamma_family", scaled_family)
    return failed("09")


def test_product_identity_gap_flags_a_scaled_model_field(monkeypatch):
    # along a fixed-eta leg the rows of the one-form sum to zero, so only
    # each modulus alone sees v: the gap is about 2 eps, flagged from
    # eps = 5.0e-13 (tol 1e-12)
    assert "logz-growth/product-identity" in _criterion_09_failures(
        monkeypatch, v_scale=1.0 + 1e-6)


def test_log_sum_gap_flags_a_scaled_gamma(monkeypatch):
    # the gap is about 0.47 eps, flagged from eps = 2.1e-6 (tol 1e-6)
    assert "logz-growth/log-sum-identity" in _criterion_09_failures(
        monkeypatch, gamma_scale=1.0 + 1e-4)


def test_integrability_gap_flags_a_scaled_eta_block(monkeypatch):
    # every kernel Hessian's eta-eta block scaled by 1 + eps, eps = 1e-2, so
    # the horizontal Laplacian of V no longer cancels the mu-Hessian of W:
    # each row reads eps / (1 + eps), flagged from eps = 1.001e-3 at N = 3
    # and 4 (tol 1e-3)
    hessian = frame.alpha_hessian

    def scaled(*args):
        labels, V, grad, hess = hessian(*args)
        hess[..., -2:, -2:] *= 1.0 + 1e-2
        return labels, V, grad, hess

    monkeypatch.setattr(frame, "alpha_hessian", scaled)
    assert failed("12") == {"integrability/N=3-second", "integrability/N=4-second"}


@pytest.mark.parametrize("kind", ["face", "cone", "value"])
def test_euler_rows_flag_a_scaled_face_cone_or_value(monkeypatch, kind):
    # row 0 of one output of alpha_hessian's engine calls scaled by
    # 1 + 1e-6: the faces' (at p and p + 2), or of the kernels' one call at
    # p, p + 2 and p + 4 only the cones at p + 2 or only the values at p.
    # The first identity compares each face with itself and the second
    # ignores face errors, so only the Euler rows read them: the face at
    # 0.81 and 0.76 eps (N = 3 and 4), the cone at 1.36 and 1.43 eps, the
    # value at eps, against 1e-12 and 5e-7
    engine = kernels._engine_batch

    def scaled(fam, mu, eta, quad, powers=1, tol_scale=1.0):
        raw = engine(fam, mu, eta, quad, powers, tol_scale)
        N, d = mu.shape[1], fam.M.shape[2]
        if d == N - 2 and powers == 2 and kind == "face":
            raw.value[0] *= 1.0 + 1e-6
            raw.higher[0][0] *= 1.0 + 1e-6
        elif d == N - 1 and powers == 3 and kind != "face":
            (raw.value if kind == "value" else raw.higher[0])[0] *= 1.0 + 1e-6
        return raw

    monkeypatch.setattr(kernels, "_engine_batch", scaled)
    assert failed("12") == {"integrability/N=3-euler", "integrability/N=4-euler"}
