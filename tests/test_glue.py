import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlab import checks
from ghlab.geometry import BasePoint, IndexSet, QuadForm
from ghlab.glue import (
    ExtensionProfile,
    cutoff,
    glue_weight,
    glue_weight_batch,
    profile_condition_check,
)
from ghlab.locus import RegionConstants


class TestCutoff:
    def test_plateaus_bit_exact(self):
        for x in (0.0, 0.1, 0.375, -0.2):
            assert cutoff(x) == 1.0
        for x in (0.5, 0.7, 10.0, -0.6):
            assert cutoff(x) == 0.0

    def test_strictly_between_on_ramp(self):
        v = cutoff(0.44)
        assert 0.0 < v < 1.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonincreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert cutoff(lo) >= cutoff(hi) - 1e-15

    def test_vector_evaluation(self):
        x = np.array([0.0, 0.44, 0.46, 0.6])
        v = cutoff(x)
        assert v[0] == 1.0 and v[3] == 0.0
        assert 0.0 < v[2] < v[1] < 1.0
        # the one-pass ramp equals each value taken alone
        assert v.tolist() == [cutoff(float(y)) for y in x]


class TestGlueWeight:
    def setup_method(self):
        self.A = QuadForm.identity(3)
        self.I = IndexSet((0, 1, 2))
        self.consts = RegionConstants()

    def point(self, nu, d):
        mu = np.array([d, 0.0, nu])
        return BasePoint(mu, 0j)

    def test_core_band_exact_one(self):
        # c0 |mu_I| / rho below the lower plateau edge for every factor
        nu = 1.0e6
        w = glue_weight(self.A, self.I, self.consts, self.point(nu, 100.0))
        assert w.value == 1.0
        assert w.in_domain

    def test_outer_band_exact_zero(self):
        nu = 1.0e6
        w = glue_weight(self.A, self.I, self.consts, self.point(nu, nu / 40.0))
        assert w.value == 0.0

    def test_ramp_band_strictly_between(self):
        nu = 1.0e6
        # c0 d / nu = 0.4375 inside (3/8, 1/2)
        w = glue_weight(self.A, self.I, self.consts,
                        self.point(nu, 0.4375 / 32.0 * nu))
        assert 0.0 < w.value < 1.0

    def test_degenerate_transverse_feet(self):
        # rho = 0 on the stratum's edge: factor collapses to an indicator
        p_on = BasePoint(np.zeros(3), 0j)
        w = glue_weight(self.A, self.I, self.consts, p_on)
        assert w.value == 1.0
        p_off = BasePoint(np.array([5.0, -3.0, 0.0]), 0j)
        w2 = glue_weight(self.A, self.I, self.consts, p_off)
        assert w2.value == 0.0

    def test_domain_flag_and_enforcement(self):
        p_far = BasePoint(np.array([2.0, 2.0, 2.0]), 1.0 + 0j)
        w = glue_weight(self.A, self.I, self.consts, p_far)
        assert not w.in_domain

    def test_swap_handles_subsets_without_zero(self):
        # the subset {1, 2, 3} reaches the same weight through the swap
        I2 = IndexSet((1, 2, 3))
        nu = 1.0e6
        p = BasePoint(np.array([nu + 50.0, nu, nu]), 0j)
        w = glue_weight(self.A, I2, self.consts, p)
        assert w.value == 1.0

    def test_batch_rows_match_one_point(self):
        # core, ramp and outer points, on the hull, off the stratum's edge,
        # off the hull with a vanishing rho, and a random form at N = 4:
        # each row is the one-point weight
        rng = np.random.default_rng(61)
        for A, I in ((self.A, self.I), (checks.random_spd(rng, 4), IndexSet((1, 3)))):
            nu = 1.0e6
            pts = [self.point(nu, c * nu / 32.0) for c in (0.01, 0.4, 0.4375, 0.45, 0.6)]
            pts = [BasePoint(np.append(p.mu, [2.0] * (A.n - 3)), p.eta) for p in pts]
            pts += [BasePoint(np.zeros(A.n), 0j), BasePoint(np.arange(A.n) - 1.0, 0j),
                    BasePoint(np.append([5.0, -3.0], np.zeros(A.n - 2)), 0j)]
            pts += [BasePoint(rng.normal(size=A.n) * 10.0, complex(*rng.normal(size=2)))
                    for _ in range(20)]
            value, in_domain = glue_weight_batch(A, I, self.consts, np.array([p.mu for p in pts]),
                                                 np.array([p.eta for p in pts]))
            # a ramp value, and rho = 0 on the hull (weight 1) and off it
            # (hull distance 5.83, weight 0) beside live rows
            assert A is not self.A or (0.0 < value[2] < 1.0 and value[5] == 1.0
                                       and value[7] == 0.0)
            for b, p in enumerate(pts):
                one = glue_weight(A, I, self.consts, p)
                assert (one.value, one.in_domain) == (value[b], in_domain[b])


class TestExtensionProfile:
    def setup_method(self):
        self.prof = ExtensionProfile(1.0, 10.0, 1.0e4, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtensionProfile(0.0, 10.0, 1e4, 0.1)
        with pytest.raises(ValueError):
            ExtensionProfile(1.0, 2.0, 1e4, 0.1)
        with pytest.raises(ValueError):
            ExtensionProfile(1.0, 10.0, 10.5, 0.1)
        with pytest.raises(ValueError):
            ExtensionProfile(1.0, 10.0, 1e4, 1.2)

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 10.0, 1e4, 0.1), "slope"),
        ((math.inf, 10.0, 1e4, 0.1), "slope"),
        ((1.0, math.nan, 1e4, 0.1), "shoulder"),
        ((1.0, 10.0, math.inf, 0.1), "decay floor"),
        ((1.0, 10.0, 1e4, math.nan), "decay exponent margin"),
    ])
    def test_refuses_non_finite_parameters(self, args, name):
        # a NaN slope or shoulder once built a profile whose h is nan, and
        # an inf floor or slope surfaced only as a RuntimeWarning in a scan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExtensionProfile(*args)

    def test_pieces_exact(self):
        K, M = 1.0, 10.0
        for t in np.linspace(1.0, M - 1.0, 20):
            assert self.prof.h(t) == pytest.approx(K, abs=1e-12)
            assert self.prof.H(t) == pytest.approx(K * t, abs=1e-12)
            assert self.prof.f(t) == pytest.approx(K * t, abs=1e-12)
        for t in np.linspace(M + 1.0, 500.0, 20):
            g = t - M + 2.0
            assert self.prof.h(t) == pytest.approx(
                2.0 * math.log(2.0) * K / (g * math.log(g)), abs=1e-12)
            assert self.prof.H(t) == pytest.approx(
                K * M + 2.0 * math.log(2.0) * K * math.log(math.log(g)),
                abs=1e-12)

    def test_seams_continuous_to_second_order(self):
        assert checks.profile_seam_jump(self.prof) < 1e-10

    def test_f_relations(self):
        # f' = H/t and (t f')' = h tie the three displays together
        for t in (2.0, 9.5, 10.5, 30.0, 2000.0):
            assert self.prof.f_prime(t) == pytest.approx(
                self.prof.H(t) / t, rel=1e-12)
            assert (self.prof.f_prime(t) + t * self.prof.f_second(t)
                    == pytest.approx(self.prof.h(t), rel=1e-9, abs=1e-12))

    def test_f_is_the_running_integral_of_H_over_t(self):
        # a central difference of f against f' = H/t on all three pieces,
        # and no kink where the bridge meets the tail
        for t in (9.5, 10.5, 12.0, 30.0, 2000.0):
            step = 1e-5 * t
            slope = (self.prof.f(t + step) - self.prof.f(t - step)) / (2.0 * step)
            assert slope == pytest.approx(self.prof.f_prime(t), rel=1e-7), t
        t0, step = self.prof.M + 1.0, 1e-6
        left = (self.prof.f(t0) - self.prof.f(t0 - step)) / step
        right = (self.prof.f(t0 + step) - self.prof.f(t0)) / step
        assert right == pytest.approx(left, rel=1e-5)

    def test_eigenvalues_positive_far_out(self):
        t = np.array([2.0, 9.5, 10.5, 50.0, 1e5, 1e8])
        # the two curvature eigenvalues f' = H/t and f' + t f'' = h
        fp, h = self.prof.f_prime(t), self.prof.h(t)
        assert np.all(fp > 0.0)
        assert np.all(h > 0.0)

    def test_log_tail_asymptotics(self):
        # beyond the overflow point the log forms continue analytically
        u = 800.0
        t_log_h = self.prof.log_h(u)
        assert t_log_h == pytest.approx(
            math.log(2.0 * math.log(2.0)) - u - math.log(u), rel=1e-6)

    def test_condition_margin_wide_floor(self):
        rep = profile_condition_check(self.prof)
        assert rep.positive
        assert rep.min_loggap > 0.5

    def test_condition_margin_narrow_floor(self):
        prof = ExtensionProfile(1.0, 10.0, 13.0, 0.1)
        rep = profile_condition_check(prof)
        assert not rep.positive
        assert rep.min_loggap < -1.0
