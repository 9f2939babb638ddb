"""Engine checks against oracles that bypass the panel machinery.

The one-dimensional integral has an elementary antiderivative: for
a t^2 - 2 b t + c with discriminant D = a c - b^2 > 0,

    int_0^inf dt / (a t^2 - 2 b t + c)
        = (pi/2 + arctan(b / sqrt(D))) / sqrt(D).

At p = 3 with Q = I and two cone columns, the integral over a quadrant
whose corner sits at offsets (a, b) from the foot of a point at height c
is elementary too,

    [pi/2 - atan(a/c) - atan(b/c) + atan(a b / (c sqrt(a^2 + b^2 + c^2)))] / c.

Those formulas, derived by hand and frozen here, plus a scrambled-Sobol
estimator, 50-digit mpmath quadrature of the half-line integrals, of the
wedge integrals in polar coordinates about the apex and of each wedge edge
term in the angle the edge subtends, are the independent routes the engine
must match.
"""

import math
import warnings

import numpy as np
import pytest

from ghlab import checks, holo, kernels, quadrature
from ghlab.geometry import IndexSet, batch_from_vectors
from ghlab.quadrature import (
    QuadratureError,
    QuadratureSpec,
    SingularityProximity,
    _axis_breakpoints,
    gauss_rule,
    half_line_integrals,
    nonneg_argmin,
    panel_nodes,
    power_kernel_integral,
)
from oracles import qmc_power_kernel_integral


def line_oracle(a: float, b: float, c: float) -> float:
    D = a * c - b * b
    assert D > 0
    return (0.5 * math.pi + math.atan(b / math.sqrt(D))) / math.sqrt(D)


def test_gauss_rule_integrates_polynomials():
    x, w = gauss_rule(8)
    # exact through degree 15 on [-1, 1]
    for k in range(0, 16, 2):
        assert float(w @ x ** k) == pytest.approx(2.0 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("order", [8, 16, 24, 32])
def test_gauss_rule_matches_a_50_digit_rule(mpmath, order):
    # numpy's eigensolver rule, which Newton's method replaced, put the
    # weights 1.2e-13 off at order 24 and 5.8e-14 at order 32
    eps = np.finfo(float).eps
    x, w = gauss_rule(order)
    assert not (x.flags.writeable or w.flags.writeable)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(float(w.sum()) - 2.0) <= 4 * eps
    for xk, wk in zip(x.tolist(), w.tolist()):
        r = mpmath.findroot(lambda t: mpmath.legendre(order, t), xk)
        dp = order * (mpmath.legendre(order - 1, r) - r * mpmath.legendre(order, r)) / (1 - r * r)
        assert abs(xk - r) <= 2 * eps
        assert abs(wk - 2 / ((1 - r * r) * dp ** 2)) <= 2e-14 * wk


def test_panel_nodes_partition():
    nodes, wts = panel_nodes(np.array([0.0, 1.0, 3.0]), 6)
    assert len(nodes) == 12
    assert float(np.sum(wts)) == pytest.approx(3.0)
    assert float(wts @ nodes ** 2) == pytest.approx(9.0)


def test_closed_form_no_sweep():
    # d = 0: value is (b Q b + E)^(-p/2) exactly, no panels involved
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([[0.7, -0.4]])
    res = power_kernel_integral(Q, 1.7, b, np.array([0.5 + 0.5j]), np.zeros((1, 2, 0)), 1,
                                QuadratureSpec())
    want = (b[0] @ Q @ b[0] + 1.7 * 0.5) ** -0.5
    assert res.value[0, 0] == pytest.approx(want, rel=1e-15)
    assert res.evals == 1


@pytest.mark.parametrize("mu,eta", [
    ((0.8, -0.4), 0.6 + 0.2j),
    ((2.0, 1.0), 0.1j),
    ((-1.5, 0.7), 1.3 + 0.0j),
])
def test_engine_matches_line_oracle(mu, eta):
    # one sweep column along e_2 against mu and the eta mass
    A = np.array([[2.0, 0.5], [0.5, 1.5]])
    det_a = float(np.linalg.det(A))
    M = np.array([[0.0], [1.0]])
    b = np.array(mu, dtype=float)
    a = float(M[:, 0] @ A @ M[:, 0])
    bq = float(M[:, 0] @ A @ b)
    c = float(b @ A @ b) + det_a * abs(eta) ** 2
    want = line_oracle(a, bq, c)
    res = power_kernel_integral(A, det_a, b[None, :], np.array([eta]), M[None], 2,
                                QuadratureSpec())
    assert res.converged
    assert res.value[0, 0] == pytest.approx(want, rel=1e-8)
    assert abs(res.value[0, 0] - want) <= max(res.error[0, 0], 1e-12)


def test_engine_matches_qmc_two_dim():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    A = q @ np.diag([0.7, 1.2, 2.1]) @ q.T
    M = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.4, 0.8, -0.6])
    eta = 0.5 + 0.1j
    res = power_kernel_integral(A, float(np.linalg.det(A)), b[None, :], np.array([eta]),
                                M[None], 3, QuadratureSpec())
    m, se = qmc_power_kernel_integral(A, float(np.linalg.det(A)), b, eta, M,
                                      3, n_pow2=15, replicates=8)
    assert abs(res.value[0, 0] - m) < 4.0 * se + 1e-9


@pytest.mark.parametrize("abs_tol", [math.nan, math.inf], ids=["nan", "inf"])
def test_spec_refuses_a_non_finite_abs_tol(abs_tol):
    # a NaN floor once passed every refusal at d <= 2 and sent a call into
    # the sweep loop with no groups (UnboundLocalError); an infinite one
    # refused every point as below the resolution floor inf
    with pytest.raises(ValueError, match="abs_tol must be positive and finite"):
        QuadratureSpec(abs_tol=abs_tol)


def test_engine_gradient_matches_differences():
    A = np.array([[1.5, 0.2], [0.2, 1.0]])
    det_a = float(np.linalg.det(A))
    M = np.array([[0.0], [1.0]])
    eta = 0.4 + 0.3j
    spec = QuadratureSpec()

    def value(b, et):
        return power_kernel_integral(A, det_a, b[None], np.array([et]), M[None], 2,
                                     spec).value[0, 0]

    b0 = np.array([0.9, -0.3])
    res = power_kernel_integral(A, det_a, b0[None, :], np.array([eta]), M[None], 2, spec,
                                want_gradient=True)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (value(b0 + e, eta) - value(b0 - e, eta)) / (2 * h)
        assert res.gradient[0, 0, k] == pytest.approx(fd, rel=2e-5)
    fd_x = (value(b0, eta + h) - value(b0, eta - h)) / (2 * h)
    fd_y = (value(b0, eta + 1j * h) - value(b0, eta - 1j * h)) / (2 * h)
    assert res.gradient[0, 0, 2] == pytest.approx(fd_x, rel=2e-5)
    assert res.gradient[0, 0, 3] == pytest.approx(fd_y, rel=2e-5)


def test_singularity_raises():
    A = np.eye(2)
    M = np.array([[0.0], [1.0]])
    # b on the sweep ray with no eta mass: distance to the sheet is zero
    with pytest.raises(SingularityProximity):
        power_kernel_integral(A, 1.0, np.array([[0.0, 2.0]]), np.zeros(1), M[None], 2,
                              QuadratureSpec())
    # d = 2: b inside the quadrant, on an edge and at the apex
    A = np.eye(3)
    M = np.eye(3)[:, 1:]
    for b in ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(SingularityProximity):
            power_kernel_integral(A, 1.0, np.array([b]), np.zeros(1), M[None], 3,
                                  QuadratureSpec())


def test_sheet_row_after_the_first_raises():
    # every closed-form row is screened, not only the first: the second
    # row lies on the sheet (d = 1, then d = 2), the first does not; the
    # refusal is the only signal, no RuntimeWarning comes before it
    Q = np.array([[1.3, 0.2], [0.2, 0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularityProximity, match="row 1"):
            power_kernel_integral(Q, 1.0, np.array([[1.0, 2.0], [0.0, 2.0]]), np.zeros(2),
                                  np.array([[[0.0], [1.0]]]), 2, QuadratureSpec())
        with pytest.raises(SingularityProximity, match="row 1"):
            power_kernel_integral(np.eye(3), 1.0, np.array([[1.0, 1.0, 1.0], [0.5, 0.5, 0.0]]),
                                  np.zeros(2), np.eye(3)[None, :, :2], 3, QuadratureSpec())


def test_line_row_behind_the_apex_at_zero_height_is_finite(mpmath):
    # d = 1 at eta = 0: row 1 lies on the line through the sheet, behind its
    # apex, so h = 0 while r* = |beta| / sqrt(a) clears the floor.  There
    # J_p = a^(p/2-1) |beta|^(1-p) / (p-1), and its gradient is
    # a^(p/2-1) |beta|^(-p) Q m along the plane (the h term has a double
    # zero) and 0 in eta; no RuntimeWarning on the way
    Q, m_col = np.diag([1.4, 0.8]), np.array([0.0, 1.0])
    b = np.array([[1.0, 2.0], [0.0, -1.5]])
    a, beta = 0.8, -1.2
    bm, qd = [mpmath.mpf(0), mpmath.mpf("-1.5")], [mpmath.mpf("1.4"), mpmath.mpf("0.8")]
    for power in (2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = power_kernel_integral(Q, 1.0, b, np.zeros(2), m_col[None, :, None], power,
                                        QuadratureSpec(), want_gradient=True, floor=0.5)
        closed = a ** (0.5 * power - 1) * abs(beta) ** (1 - power) / (power - 1)
        assert res.value[0, 1] == pytest.approx(closed, rel=2e-15)
        want = mp_half_line(mpmath, qd[1], mpmath.mpf("-1.2"), mpmath.mpf("1.8"), power)
        assert res.value[0, 1] == pytest.approx(float(want), rel=1e-15)
        grad_closed = np.concatenate([a ** (0.5 * power - 1) * abs(beta) ** -power
                                      * (Q @ m_col), np.zeros(2)])
        np.testing.assert_allclose(res.gradient[0, 1], grad_closed, rtol=2e-15, atol=0.0)
        # d/db of the integrand ((b - t m)^T Q (b - t m))^(-p/2), at 50 digits
        for j in range(2):
            g = mpmath.quad(lambda t: -power * qd[j] * (bm[j] - t * m_col[j])
                            * (qd[0] * bm[0] ** 2 + qd[1] * (bm[1] - t) ** 2)
                            ** (-mpmath.mpf(power) / 2 - 1), [0, 1, 10, mpmath.inf])
            assert res.gradient[0, 1, j] == pytest.approx(float(g), rel=1e-15, abs=1e-300)


def test_swept_rows_far_apart_match_each_row_alone():
    # d = 3 (one swept axis): two rows far apart in one call each sweep on
    # their own grid, so each row's value and error are bitwise what it
    # gives alone
    Q, M = np.eye(4), np.eye(4)[None, :, :3]
    b = np.array([[0.3, -0.2, 0.5, 0.4], [40.0, -30.0, 25.0, 0.05]])
    eta = np.array([0.4 + 0.1j, 0.02 + 0j])
    both = power_kernel_integral(Q, 1.0, b, eta, M, 4, QuadratureSpec())
    for row in range(2):
        alone = power_kernel_integral(Q, 1.0, b[row:row + 1], eta[row:row + 1], M, 4,
                                      QuadratureSpec())
        assert both.value[0, row] == alone.value[0, 0]
        assert both.error[0, row] == alone.error[0, 0]


def test_swept_row_on_the_sheet_is_refused_by_name():
    # d = 3: the second row lies on the sheet (b = M (1, 1, 1), eta = 0);
    # it is refused before any sweep, naming its kernel and row
    Q, M = np.eye(4), np.eye(4)[None, :, :3]
    b = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
    with pytest.raises(SingularityProximity, match="row 1 lies on the kernel's singular "
                                                   "sheet") as exc:
        power_kernel_integral(Q, 1.0, b, np.array([0.5, 0.0]), M, 4, QuadratureSpec())
    assert (exc.value.kernel, exc.value.row) == (0, 1)


def _reference_distance(Q, M, b, E):
    tau, _ = nonneg_argmin(M.T @ Q @ M, M.T @ (Q @ b))
    x = b - M @ tau
    return math.sqrt(float(x @ Q @ x) + E)


# cone coordinates t of the foot M t: inside, on and beside each edge
# line (both sides, before and behind the apex), behind the apex, far off
_FEET = {
    1: [(1.0,), (0.0,), (-1.0,), (-40.0,)],
    2: [(1.0, 2.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, -0.3),
        (-0.3, 1.0), (-1.0, 0.0), (0.0, -1.0), (-1.0, -1.0), (2.0, -5.0),
        (-5.0, 2.0), (-0.2, 3.0), (3.0, -0.2), (30.0, -70.0)],
}


@pytest.mark.parametrize("d", [1, 2])
def test_engine_sheet_distance_matches_enumeration(d):
    # the engine's r* against the enumeration of active sets, for random
    # forms and mixed-sign cone columns, with the point at a Q-height h over
    # its foot M t in the cone's span: each row alone, then every row of two
    # kernels' feet in one call, where the nearest (kernel, row) pair is
    # the one a floor just above r* refuses; the heights grow row by row,
    # so that pair is unique
    rng = np.random.default_rng(40 + d)
    for m in (d + 1, d + 2):
        for _ in range(6):
            root = rng.normal(size=(m, m))
            Q = root @ root.T + 0.3 * np.eye(m)
            Ms = rng.normal(size=(2, m, d))
            rows, etas = [], []
            for M in Ms:
                G = M.T @ Q @ M
                for t in _FEET[d]:
                    v = rng.normal(size=m)
                    v -= M @ np.linalg.solve(G, M.T @ (Q @ v))   # Q-across M
                    for h, e in ((0.0, 0.3), (0.5, 0.0), (1e-3, 1e-6)):
                        h *= 1.0 + 0.01 * len(rows)
                        b = M @ np.array(t) + h * v / math.sqrt(v @ Q @ v)
                        eta = math.sqrt(e / 1.7) + 0j
                        res = power_kernel_integral(Q, 1.7, b[None, :], np.array([eta]),
                                                    M[None], 3, QuadratureSpec())
                        ref = _reference_distance(Q, M, b, 1.7 * abs(eta) ** 2)
                        assert res.r_star == pytest.approx(ref, rel=1e-12, abs=1e-14)
                        rows.append(b)
                        etas.append(eta)
            b, eta = np.array(rows), np.array(etas)
            want = np.array([[_reference_distance(Q, M, row, 1.7 * abs(e) ** 2)
                              for row, e in zip(b, eta)] for M in Ms])
            res = power_kernel_integral(Q, 1.7, b, eta, Ms, 3, QuadratureSpec())
            assert res.r_star == pytest.approx(want.min(), rel=1e-12, abs=1e-14)
            with pytest.raises(SingularityProximity, match="below the resolution floor") as exc:
                power_kernel_integral(Q, 1.7, b, eta, Ms, 3, QuadratureSpec(),
                                      floor=res.r_star * (1.0 + 1e-9))
            assert (exc.value.kernel, exc.value.row) == np.unravel_index(want.argmin(),
                                                                         want.shape)


def test_budget_error():
    # six cone columns: the graded radius with its mapped tail times three
    # stick-breaking coordinates need 401,080,320 nodes, far over the fixed
    # budget, so the grid is refused before any sweep; the refusal names
    # the kernel and the first row of the group the grid was built for
    A = np.eye(7)
    M = np.eye(7)[None, :, 1:]
    with pytest.raises(QuadratureError, match=r"needs 401080320 .*budget is 4000000") as exc:
        power_kernel_integral(A, 1.0, np.ones((1, 7)), np.array([0.5 + 0j]), M, 7,
                              QuadratureSpec())
    assert (exc.value.kernel, exc.value.row) == (0, 0)


def test_unconverged_integral_raises(monkeypatch):
    # N = 4 axis kernel geometry, one swept axis: Gauss orders this coarse
    # miss the tolerance even after the refinement pass (at the engine's
    # orders 16/8 this case converges to error 0 at any tolerance)
    A = np.array([[1.5, 0.2, 0.1, 0.0], [0.2, 1.2, -0.3, 0.1],
                  [0.1, -0.3, 0.9, 0.05], [0.0, 0.1, 0.05, 1.1]])
    M = np.eye(4)[None, :, 1:]
    b = np.array([[0.8, -0.5, 0.4, 0.3]])
    eta = np.array([0.6 + 0.2j])
    det_a = float(np.linalg.det(A))
    power_kernel_integral(A, det_a, b, eta, M, 4, QuadratureSpec())
    monkeypatch.setattr(quadrature, "_ORDER", 4)
    monkeypatch.setattr(quadrature, "_ORDER_LOW", 2)
    with pytest.raises(QuadratureError, match=r"r\* = .*grid .*tolerance") as exc:
        power_kernel_integral(A, det_a, b, eta, M, 4, QuadratureSpec())
    assert (exc.value.kernel, exc.value.row) == (0, 0)


def quadrant_oracle(a: float, b: float, c: float) -> float:
    root = math.sqrt(a * a + b * b + c * c)
    return (0.5 * math.pi - math.atan(a / c) - math.atan(b / c)
            + math.atan(a * b / (c * root))) / c


@pytest.mark.parametrize("a,b,c", [
    (0.7, 0.4, 0.6),            # corner in front of the foot
    (-0.8, -1.3, 0.6),          # foot inside the quadrant
    (-0.5, 0.9, 1.3),           # foot beside one edge
    (0.0, 0.0, 1e-3),           # corner at the foot, close to the sheet
    (30.0, 50.0, 0.8),          # far in front
    (-40.0, -25.0, 0.5),        # far behind
    (-3e3, 2.0, 0.3),           # far along one edge
])
def test_engine_matches_quadrant_oracle(a, b, c):
    # d = 2, p = 3: the closed-form wedge, exact to rounding
    M = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
    res = power_kernel_integral(np.eye(3), 1.0, np.array([[c, -a, -b]]), np.zeros(1), M,
                                3, QuadratureSpec())
    want = quadrant_oracle(a, b, c)
    assert res.value[0, 0] == pytest.approx(want, rel=1e-12)
    assert res.error[0, 0] <= 1e-8 * want


def test_fine_panels_survive_large_radius():
    # a tail start this large (a point far out along the swept parameters)
    # keeps the peak's fine panels: near-duplicates are judged against each
    # break, not against the end of the axis
    c, w = 0.5, 0.1
    for T in (1e2, 4e13):
        br = _axis_breakpoints(c, w, T)
        for j in range(-3, 3):
            for x in (c - w * 2.0 ** j, c + w * 2.0 ** j):
                assert np.min(np.abs(br - x)) <= 1e-15, (T, x)
        assert br[0] == 0.0 and br[-1] == T
        assert np.all(np.diff(br) > 0.0)


# beta / sqrt(D) from on-axis through both far sides of the half line, then
# the Wallis recursion's worst case: x = sin^2(phi0) = 1 / (1 + ratio^2) is
# 0.2500 and 0.257, just above the series switch at 1/4
RATIOS = [0.0, 1e-3, -1e-3, 1.0, -1.0, 30.0, -30.0, 1e4, -1e4, 1e8, -1e8, -1.732, -1.7]


@pytest.fixture
def mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        yield mp


def mp_half_line(mpmath, a, beta, gamma, q, moment=0):
    """50-digit int_0^inf t^moment (a t^2 - 2 beta t + gamma)^(-q/2) dt,
    split at the peak and at multiples of its width on both sides."""
    peak = max(beta / a, 0)
    width = mpmath.sqrt(a * gamma - beta ** 2) / a
    scale = max(abs(beta) / a, width)
    pts = {mpmath.mpf(0), peak}
    for k in (1, 10, 100):
        pts |= {peak - k * width, peak + k * width, k * scale}
    pts = sorted(x for x in pts if x >= 0) + [mpmath.inf]
    return mpmath.quad(lambda t: t ** moment
                       * (a * t * t - 2 * beta * t + gamma) ** (-mpmath.mpf(q) / 2),
                       pts)


@pytest.mark.parametrize("q", range(2, 9))
def test_half_line_integrals_match_mpmath(q, mpmath):
    a, D = mpmath.mpf("1.7"), mpmath.mpf("0.9")
    for ratio in RATIOS:
        beta = mpmath.mpf(ratio) * mpmath.sqrt(D)
        want = mp_half_line(mpmath, a, beta, (D + beta ** 2) / a, q)
        # D enters as h = D / a, never through a gamma - beta^2
        got = half_line_integrals(1.7, np.array([float(beta)]),
                                  np.array([float(D / a)]), (q,))[0][0]
        assert got == pytest.approx(float(want), rel=1e-13), ratio


@pytest.mark.parametrize("k", range(9))
def test_small_angle_series_matches_betainc_and_mpmath(k, mpmath):
    # S_k(phi0) = s^(k+1) T_k(s^2), s = sin(phi0), over x = s^2 in (0, 1/4)
    # and every k the engine reaches at N <= 6 (q - 2 up to 8 for the
    # line's gradient); against the incomplete beta function
    # S_k = B((k+1)/2, 1/2) I_x((k+1)/2, 1/2) / 2 in scipy and at 60 digits
    from scipy import special
    x = np.concatenate([np.geomspace(1e-12, 1e-2, 8), np.linspace(1e-2, 0.25, 24)[:-1],
                        [np.nextafter(0.25, 0.0)]])
    T = quadrature._sine_power_sums(x, (k,))[0]
    a = 0.5 * (k + 1)
    S = x ** a * T
    with mpmath.workdps(60):
        want_T = np.array([float(mpmath.betainc(a, 0.5, 0, mpmath.mpf(xi)) / 2
                                 / mpmath.mpf(xi) ** a) for xi in x])
    np.testing.assert_allclose(T, want_T, rtol=4 * 2.0 ** -52, atol=0.0)
    half_beta = 0.5 * math.gamma(a) * math.sqrt(math.pi) / math.gamma(a + 0.5)
    np.testing.assert_allclose(S, half_beta * special.betainc(a, 0.5, x),
                               rtol=10 * 2.0 ** -52, atol=0.0)


@pytest.mark.parametrize("p", range(2, 7))
def test_closed_form_axis_gradient_matches_mpmath(p, mpmath):
    # d = 1: the engine is the closed form alone.  Its gradient along the
    # cone column m is -p (beta J - a K) with the first moment K = K_(p+2);
    # across m and in eta it is a multiple of J = J_(p+2)
    Q = np.array([[1.4, 0.3], [0.3, 0.8]])
    m_col = np.array([0.0, 1.0])
    c_eta, eta = 0.7, 0.5 - 0.4j
    a = float(m_col @ Q @ m_col)
    across = np.array([1.0, -Q[0, 1] / Q[1, 1]])      # Q-orthogonal to m
    h = float(across @ Q @ across) + c_eta * abs(eta) ** 2
    Qmp = mpmath.matrix(Q.tolist())
    E = mpmath.mpf(c_eta) * (mpmath.mpf(eta.real) ** 2 + mpmath.mpf(eta.imag) ** 2)
    # a float b resolves its part across m only to eps |b|, so the engine
    # cannot see the 1e8 ratios at rel 1e-12; the helper test covers them
    # and the Wallis ratios after them
    for ratio in RATIOS[:-4]:
        b = across + ratio * math.sqrt(h / a) * m_col
        res = power_kernel_integral(Q, c_eta, b[None], np.array([eta]), m_col[None, :, None],
                                    p, QuadratureSpec(), want_gradient=True)
        bm = mpmath.matrix(b.tolist())
        beta = (Qmp * bm)[1]
        gamma = (bm.T * Qmp * bm)[0] + E
        J = mp_half_line(mpmath, Qmp[1, 1], beta, gamma, p + 2)
        K = mp_half_line(mpmath, Qmp[1, 1], beta, gamma, p + 2, moment=1)
        along = -p * (beta * J - Qmp[1, 1] * K)
        perp = -p * (mpmath.matrix(across.tolist()).T * Qmp * bm)[0] * J
        g = res.gradient[0, 0]
        assert float(g[:2] @ m_col) == pytest.approx(float(along), rel=1e-12), ratio
        assert float(g[:2] @ across) == pytest.approx(float(perp), rel=1e-12), ratio
        assert g[2] == pytest.approx(float(-p * c_eta * eta.real * J), rel=1e-12), ratio
        assert g[3] == pytest.approx(float(-p * c_eta * eta.imag * J), rel=1e-12), ratio


def test_nonneg_argmin_against_scipy():
    from scipy import optimize

    rng = np.random.default_rng(11)
    for _ in range(150):
        d = int(rng.integers(1, 5))
        root = rng.normal(size=(d, d))
        P = root @ root.T + 0.05 * np.eye(d)
        q = 3.0 * rng.normal(size=d)
        tau, val = nonneg_argmin(P, q)
        assert np.all(tau >= 0.0)
        ref = optimize.minimize(
            lambda t: t @ P @ t - 2.0 * q @ t, np.maximum(q, 0.1),
            jac=lambda t: 2.0 * (P @ t - q),
            bounds=[(0.0, None)] * d, method="L-BFGS-B",
            options={"ftol": 1e-15, "gtol": 1e-12})
        assert val <= ref.fun + 1e-9 * (1.0 + abs(ref.fun))


def mp_wedge(mpmath, e2, y, H2, powers):
    """50-digit integrals over the wedge between (1, 0) and e2 of
    (H2 + |w - y|^2)^(-p/2) dA(w) for each p in ``powers``, in polar
    coordinates about the apex.

    Along each direction u the radial integral of
    r (r^2 - 2 beta r + gamma)^(-p/2), beta = u . y, gamma = H2 + |y|^2, is
    beta J + gamma^(1-p/2) / (p - 2) with the half-line integral
    J = h^((1-p)/2) S_(p-2)(atan2(sqrt h, -beta)), h = gamma - beta^2; it is
    formed with extra digits, because beta J cancels against the rest
    behind the foot.  Over the directions, Gauss-Legendre rules of 24 and
    48 nodes run on panels split at the foot's direction and its opposite
    and graded geometrically about them, and must agree to 1e-20.
    """
    from mpmath.calculus.quadrature import GaussLegendre

    c, s = (mpmath.mpf(v) for v in e2)
    x, yy, H2 = mpmath.mpf(y[0]), mpmath.mpf(y[1]), mpmath.mpf(H2)
    gamma = H2 + x * x + yy * yy

    def radial(a):
        with mpmath.extradps(60):
            beta = x * mpmath.cos(a) + yy * mpmath.sin(a)
            h = H2 + (yy * mpmath.cos(a) - x * mpmath.sin(a)) ** 2
            phi0 = mpmath.atan2(mpmath.sqrt(h), -beta)
            sin0, cos0 = mpmath.sin(phi0), mpmath.cos(phi0)
            S = [phi0, 1 - cos0]
            for k in range(2, max(powers) - 1):
                S.append(((k - 1) * S[k - 2] - sin0 ** (k - 1) * cos0) / k)
            return [beta * h ** (mpmath.mpf(1 - p) / 2) * S[p - 2]
                    + gamma ** (1 - mpmath.mpf(p) / 2) / (p - 2) for p in powers]

    phi = mpmath.atan2(s, c)
    foot = mpmath.atan2(yy, x)
    width = mpmath.sqrt(H2 / (x * x + yy * yy))
    pts = {mpmath.mpf(0), phi}
    for centre in (foot - mpmath.pi, foot, foot + mpmath.pi):
        step = width
        while step < 4:
            pts |= {a for a in (centre - step, centre, centre + step) if 0 < a < phi}
            step *= 4
    pts = sorted(pts)
    rules = [GaussLegendre(mpmath.mp).calc_nodes(deg, mpmath.mp.prec) for deg in (4, 5)]
    sums = []
    for rule in rules:
        total = [mpmath.mpf(0)] * len(powers)
        for lo, hi in zip(pts[:-1], pts[1:]):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            for t, w in rule:
                total = [acc + half * w * v for acc, v in zip(total, radial(mid + half * t))]
        sums.append(total)
    for lo_order, hi_order in zip(*sums):
        assert abs(lo_order - hi_order) <= mpmath.mpf(10) ** -20 * abs(hi_order)
    return dict(zip(powers, sums[1]))


@pytest.mark.parametrize("phi, foot, H", [
    (1.1, (0.8, 0.4), 0.6),                 # foot inside
    (1.1, (0.9, 0.0), 0.5),                 # foot on an edge line
    (1.1, (0.9, -0.05), 0.5),               # foot just outside, H > |l|
    (2.0, (-1.2, -0.7), 0.3),               # foot behind the apex
    (0.34, (-1.34, 0.0), 6e-8),             # ... on an edge line, H tiny
    (1.1, (3e3, -1e4), 0.7),                # foot far away
    (1.1, (2.0, -1.5), 2.5e-8),             # H / |y0| = 1e-8, foot outside
    (1.1, (2.0, 1.0), 2.2e-8),              # H / |y0| = 1e-8, foot inside
    (1e-3, (1.0, 0.2), 0.3),                # phi near 0
    (math.pi - 1e-3, (0.4, -0.3), 0.2),     # phi near pi
], ids=["inside", "on-edge-line", "just-outside", "behind-apex",
        "behind-apex-on-edge-line", "far", "tiny-height-outside",
        "tiny-height-inside", "phi-near-0", "phi-near-pi"])
def test_wedge_matches_mpmath(phi, foot, H, mpmath):
    # d = 2: with Q = I and unit columns e_2 and (0, cos phi, sin phi) the
    # quadrant is the wedge of opening phi in the plane x_1 = 0, and
    # d tau = dA / sin phi.  Value and gradient for p = 3..8, against the
    # wedge at p and p + 2 and the half-line integrals J_p along the edges
    e2 = (math.cos(phi), math.sin(phi))
    M = np.array([[[0.0, 0.0], [1.0, e2[0]], [0.0, e2[1]]]])
    # the height splits between the transverse b_1 and the eta mass
    b = np.array([0.6 * H, foot[0], foot[1]])
    eta = H * (0.48 + 0.64j)
    W = mp_wedge(mpmath, e2, foot, mpmath.mpf(H) ** 2, range(3, 11))
    jac = 1 / mpmath.mpf(e2[1])
    y = [mpmath.mpf(v) for v in foot]
    c, s = (mpmath.mpf(v) for v in e2)
    for p in range(3, 9):
        res = power_kernel_integral(np.eye(3), 1.0, b[None], np.array([eta]), M, p,
                                    QuadratureSpec(), want_gradient=True)
        assert res.value[0, 0] == pytest.approx(float(W[p] * jac), rel=1e-12), p
        assert res.error[0, 0] == 0.0
        # along the plane: minus the outward normals (0, -1) and
        # (-sin phi, cos phi) times J_p along the edges
        J = [mp_half_line(mpmath, 1, s0, s0 * s0 + mpmath.mpf(H) ** 2 + ell * ell, p)
             for s0, ell in ((y[0], y[1]), (c * y[0] + s * y[1], s * y[0] - c * y[1]))]
        across = -p * W[p + 2] * jac
        want = [across * b[0], s * J[1] * jac, (J[0] - c * J[1]) * jac,
                across * eta.real, across * eta.imag]
        want = np.array([float(v) for v in want])
        np.testing.assert_allclose(res.gradient[0, 0], want, rtol=1e-12,
                                   atol=1e-12 * float(np.max(np.abs(want))))


def mp_edge_term(mpmath, s0, ell, H, n):
    """50-digit B = integral_0^Theta (H^2 + l^2 / sin^2 chi)^(-n/2) d chi / n
    and Theta = atan2(|l|, -s0): an edge's term for a foot outside the
    wedge.  The integrand turns where H sin chi passes |l|, so the panels
    split there; the quadrature's own error estimate must be below 1e-30."""
    s0, al, H = mpmath.mpf(s0), abs(mpmath.mpf(ell)), mpmath.mpf(H)
    theta = mpmath.atan2(al, -s0)
    pts = {mpmath.mpf(0), theta}
    if al < H:
        turn = mpmath.asin(al / H)
        pts |= {x for t in (turn / 8, turn, 8 * turn) for x in (t, mpmath.pi - t)
                if 0 < x < theta}
    B, err = mpmath.quad(lambda chi: (H * H + (al / mpmath.sin(chi)) ** 2)
                         ** (-mpmath.mpf(n) / 2), sorted(pts), error=True)
    assert err <= mpmath.mpf(10) ** -30 * B
    return B / n, theta


def mp_edge_half_line(mpmath, s0, c2, q):
    """50-digit J_q = integral_0^inf ((t - s0)^2 + c^2)^(-q/2) dt, along
    t - s0 = -c cot psi: c^(1-q) times the integral of sin^(q-2) over
    [0, atan2(c, -s0)]."""
    c = mpmath.sqrt(c2)
    J, err = mpmath.quad(lambda psi: mpmath.sin(psi) ** (q - 2),
                         [0, mpmath.atan2(c, -s0)], error=True)
    assert err <= mpmath.mpf(10) ** -30 * J
    return c ** (1 - q) * J


@pytest.mark.parametrize("p", range(3, 9))
def test_wedge_edge_terms_hold_the_budget(p, mpmath):
    # the swept path's feet: openings 0.02 to pi - 0.02, feet at radius 1e-3
    # to 1e3 and H^2 from 1e-8 to 1e2, one in four near the sheet with H
    # from 1e-6 to 1e-4; then feet just outside beside an edge, which it
    # subtends at nearly pi, with |l| / H from 1/2 to 2, where the far-edge
    # rule's poles come nearest.  W_p, W_(p+2) and dW/dy hold the budget per
    # edge term against 50-digit mpmath: inside, relative to W (every term
    # is positive); outside, to the sum of the edges' B; dW/dy, to the sum
    # of the magnitudes of its two J_p terms
    rng = np.random.default_rng(2600 + p)
    count, corner = 12, 4
    phi = rng.uniform(0.02, math.pi - 0.02, count)
    radius = 10.0 ** rng.uniform(-3.0, 3.0, count)
    angle = rng.uniform(-math.pi, math.pi, count)
    y = radius * np.array([np.cos(angle), np.sin(angle)])
    H2 = 10.0 ** np.where(np.arange(count) % 4 == 0, rng.uniform(-12.0, -8.0, count),
                          rng.uniform(-8.0, 2.0, count))
    t = 10.0 ** rng.uniform(-3.0, -0.5, corner)
    y[:, :corner] = radius[:corner] * np.array([np.ones(corner), -t])
    H2[:corner] = (radius[:corner] * t * 10.0 ** rng.uniform(-0.3, 0.3, corner)) ** 2
    e2 = (np.cos(phi), np.sin(phi))
    s0, ell = quadrature._edges(e2, y)
    W = quadrature.wedge_integrals(e2, s0, ell, H2, p, want_gradient=True)
    budget = quadrature._EDGE_BUDGET
    for i in range(count):
        H = mpmath.sqrt(mpmath.mpf(H2[i]))
        inside = ell[0, i] >= 0.0 and ell[1, i] >= 0.0
        for q, got in ((p, W[0][i]), (p + 2, W[1][i])):
            n = q - 2
            terms = [mp_edge_term(mpmath, s0[k, i], ell[k, i], H, n) for k in (0, 1)]
            if inside:
                want = scale = (mpmath.mpf(phi[i]) * H ** -n / n
                                + sum(theta * H ** -n / n - B for B, theta in terms))
            else:
                want = -sum(math.copysign(1.0, ell[k, i]) * terms[k][0] for k in (0, 1))
                scale = terms[0][0] + terms[1][0]
            assert abs(got - want) <= budget * scale, (i, q)
        J = [mp_edge_half_line(mpmath, mpmath.mpf(s0[k, i]),
                               H * H + mpmath.mpf(ell[k, i]) ** 2, p) for k in (0, 1)]
        c, s = mpmath.mpf(e2[0][i]), mpmath.mpf(e2[1][i])
        want = [s * J[1], J[0] - c * J[1]]
        scale = [s * J[1], J[0] + abs(c) * J[1]]
        for j in (0, 1):
            assert abs(W[2][j, i] - want[j]) <= budget * scale[j], (i, j)


@pytest.mark.parametrize("phi", [0.5 * math.pi, 2.0, 0.4, 3.0])
def test_wedge_row_behind_the_apex_on_an_edge_line_at_zero_height(phi, mpmath):
    # d = 2, m = 2 (no transverse part), eta = 0: the row lies on the first
    # edge's line behind the apex, so that edge's c^2 = H^2 + l^2 is 0
    # while r* = 1.3.  Along it J_p = 1.3^(1-p) / (p - 1) is finite, and
    # the in-plane gradient is minus the outward normals (0, -1) and
    # (-sin phi, cos phi) times J_p along the edges, over sin phi (d tau =
    # dA / sin phi); no RuntimeWarning
    e2 = (math.cos(phi), math.sin(phi))
    M = np.array([[[1.0, e2[0]], [0.0, e2[1]]]])
    b = np.array([[-1.3, 0.0]])
    c, s = (mpmath.mpf(v) for v in e2)
    y0 = mpmath.mpf("-1.3")
    for p in range(3, 9):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = power_kernel_integral(np.eye(2), 1.0, b, np.zeros(1), M, p,
                                        QuadratureSpec(), want_gradient=True)
        assert np.isfinite(res.value).all() and np.isfinite(res.gradient).all(), p
        J = [mp_half_line(mpmath, 1, s0, y0 * y0, p) for s0 in (y0, c * y0)]
        want = np.array([float(v / s) for v in (s * J[1], J[0] - c * J[1])])
        np.testing.assert_allclose(res.gradient[0, 0, :2], want, rtol=1e-12, atol=0.0)
        assert np.all(res.gradient[0, 0, 2:] == 0.0)


def _neighbour_rows(xs: np.ndarray, h: float) -> np.ndarray:
    """Each point of xs (B, 5), then the point moved by h, -h, h / 2 and
    -h / 2 along each coordinate in turn: 21 rows per point, as the rows
    of one call over points and their close neighbours."""
    steps = np.eye(5)[:, None] * np.array([h, -h, 0.5 * h, -0.5 * h])[:, None]
    return (xs[:, None] + np.vstack([np.zeros(5), steps.reshape(-1, 5)])).reshape(-1, 5)


def test_closed_form_hot_calls_take_no_half_line_call(monkeypatch):
    # the one-step edge terms are formed inline: an N = 3 kernel family with
    # gradients (p = 3) over 50 points and their neighbours
    # (``_neighbour_rows``) and a two-slot N = 2 gamma sum (p = 4, values) call
    # no half_line_integrals; a wedge at p = 5 with its gradient takes
    # J_5 from exactly one call
    calls = []
    half_line = quadrature.half_line_integrals
    monkeypatch.setattr(quadrature, "half_line_integrals",
                        lambda *a, **k: calls.append(a[3]) or half_line(*a, **k))
    rng = np.random.default_rng(25)
    A = checks.random_spd(rng, 3)
    xs = np.array([checks.off_locus_point(rng, A).as_vector() for _ in range(50)])
    kernels.alpha_family(A, checks.QUAD, *batch_from_vectors(_neighbour_rows(xs, 1e-3)), True)
    for _ in range(50):
        spec = holo.GammaSpec(checks.random_spd(rng, 2), IndexSet((0, 1, 2)), checks.GAMMA_QUAD)
        holo.gamma_sum_check(spec, checks.random_point(rng, 2))
    assert calls == []
    # the foot (0.5, 0.4) lies inside the wedge of opening acos(0.3)
    cphi = 0.3
    sphi = math.sqrt(1.0 - cphi * cphi)
    s0 = np.array([[0.5], [cphi * 0.5 + sphi * 0.4]])
    ell = np.array([[0.4], [sphi * 0.5 - cphi * 0.4]])
    quadrature.wedge_integrals((cphi, sphi), s0, ell, np.array([0.25]), 5, want_gradient=True)
    assert calls == [(5,)]


def test_far_edge_rule_elements_are_pinned(monkeypatch):
    # the edges sent to the far-edge rule carry no noise, so their number
    # gates the cancellation test: over one N = 3 kernel family with
    # gradients (p = 3, 20 points and their neighbours) only edges whose
    # difference would cancel reach the rule
    elements = []
    rule = quadrature._edge_rule
    monkeypatch.setattr(quadrature, "_edge_rule",
                        lambda theta, *a: elements.append(theta.size) or rule(theta, *a))
    rng = np.random.default_rng(26)
    A = checks.random_spd(rng, 3)
    xs = np.array([checks.off_locus_point(rng, A).as_vector() for _ in range(20)])
    kernels.alpha_family(A, checks.QUAD, *batch_from_vectors(_neighbour_rows(xs, 1e-3)), True)
    assert sum(elements) == 902


# -- the swept engine against its faces ------------------------------------
#
# Let K = {M tau : tau >= 0} be a cone of d columns in R^m, y0 the Q-foot of
# a row b in span M and H^2 its squared Q-height plus c_eta |eta|^2, and let
# V_q be the integral over K of (H^2 + |y - y0|_Q^2)^(-q/2) in K's plane
# measure: the engine's tau-integral times sqrt(det M^T Q M).  With f_q that
# integrand, the divergence theorem on the field (y - y0) f_q, whose
# divergence is (d - q) f_q + q H^2 f_(q+2), gives
#   (I)  (q - d) V_q = q H^2 V_(q+2) - sum_F l_F V_q^F,
# F the faces (column j dropped), V_q^F the face's own (d - 1)-parameter
# integral, n_F its outward Q-unit normal within span M and
# l_F = -n_F^T Q b; and, moving y0 along a column m_k,
#   (II) m_k . grad_b V_q = -sum_F (n_F^T Q m_k) V_q^F = V_q^(F_k) |w_k|_Q^-1,
# w_k = M G^-1 e_k the dual column, G = M^T Q M.  Both tie every swept
# integral to its faces, and those down to the d = 2 closed forms.
#
# Each engine value carries an error of at most max(abs_tol, 1e-8 |v|), by
# its two-order estimate; a gradient shares its value's grid and is held to
# the same form.  A residual is held to _FACE_FACTOR times the sum of its
# terms' bounds: 10, for an estimate that is a difference of two Gauss
# orders rather than a bound.
_FACE_FACTOR = 10.0
_FACE_SPEC = QuadratureSpec()


def _bound(raw: np.ndarray) -> np.ndarray:
    return np.maximum(_FACE_SPEC.abs_tol, quadrature._REL_TOL * np.abs(raw))


@pytest.mark.parametrize("m, d, q", [(4, 3, 4), (4, 3, 6), (5, 4, 5)],
                         ids=["d3-q4", "d3-q6", "d4-q5"])
def test_swept_integrals_obey_their_face_identities(m, d, q):
    rng = np.random.default_rng(16 * d + q)
    for _ in range(3):
        Q = checks.random_spd(rng, m).entries
        M = rng.normal(size=(m, d))
        b = rng.normal(size=(3, m))
        eta = rng.uniform(0.3, 1.0, 3) * np.exp(2j * math.pi * rng.uniform(size=3))
        faces = np.stack([np.delete(M, j, axis=1) for j in range(d)])
        full = power_kernel_integral(Q, 1.0, b, eta, M[None], q, _FACE_SPEC,
                                     want_gradient=True)
        up = power_kernel_integral(Q, 1.0, b, eta, M[None], q + 2, _FACE_SPEC).value[0]
        face = power_kernel_integral(Q, 1.0, b, eta, faces, q, _FACE_SPEC).value
        s, s_F = (np.sqrt(np.linalg.det(C.swapaxes(-1, -2) @ Q @ C)) for C in (M, faces))
        G = M.T @ Q @ M
        tau0 = np.linalg.solve(G, M.T @ Q @ b.T)     # the foot y0 = M tau0, (d, B)
        perp = b.T - M @ tau0
        H2 = np.einsum("mb,mn,nb->b", perp, Q, perp) + np.abs(eta) ** 2
        w = 1.0 / np.sqrt(np.diag(np.linalg.inv(G)))  # 1 / |w_k|_Q
        ell = w[:, None] * tau0
        V, V_F = s * full.value[0], s_F[:, None] * face
        # (I)
        res = (q - d) * V - q * H2 * s * up + np.sum(ell * V_F, axis=0)
        tol = (s * ((q - d) * _bound(full.value[0]) + q * H2 * _bound(up))
               + np.sum(np.abs(ell) * s_F[:, None] * _bound(face), axis=0))
        assert np.all(np.abs(res) <= _FACE_FACTOR * tol), (res, tol)
        # (II), along every column
        dV = full.gradient[0, :, :m] @ M
        res = s * dV - (w[:, None] * V_F).T
        tol = s * _bound(dV) + (w[:, None] * s_F[:, None] * _bound(face)).T
        assert np.all(np.abs(res) <= _FACE_FACTOR * tol), (res, tol)
