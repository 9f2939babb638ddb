"""Degenerate-set geometry against brute-force convex optimization.

The closed stratum of a subset is, after the zero-slot normalization, the
set {mu on active slots = 0, eta = 0, complement coordinates >= 0}.  Every
distance the module reports is re-derived here with scipy's bounded
L-BFGS-B on that explicit parametrization.
"""

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from ghlab import glue, locus
from ghlab.checks import random_spd
from ghlab.geometry import (BasePoint, IndexSet, QuadForm, anorm, block, check_batch,
                            schur_blocks)
from ghlab.locus import (
    RegionConstants,
    all_strata,
    dist_boundary,
    dist_closed_stratum,
    dist_locus,
    project,
    region_membership,
)
from oracles import rho_IJ, zero_swap


def oracle_closed_dist(A: QuadForm, I: IndexSet, p: BasePoint) -> float:
    """Distance to the closed stratum by direct bounded minimization."""
    N = A.n
    A2, I2, p2, _ = zero_swap(A, I, p)
    act = list(I2.active)
    comp = [k for k in range(1, N + 1) if k not in act]

    def cost(w):
        q_mu = np.zeros(N)
        for lab, val in zip(comp, w):
            q_mu[lab - 1] = val
        d_mu = p2.mu - q_mu
        return float(d_mu @ A2.entries @ d_mu) + A2.det * abs(p2.eta) ** 2

    if not comp:
        return math.sqrt(cost(np.zeros(0)))
    best = None
    for start in (np.zeros(len(comp)),
                  np.maximum([p2.mu[c - 1] for c in comp], 0.0)):
        res = optimize.minimize(cost, start, bounds=[(0.0, None)] * len(comp),
                                method="L-BFGS-B",
                                options={"ftol": 1e-16, "gtol": 1e-14})
        if best is None or res.fun < best:
            best = res.fun
    return math.sqrt(best)


def test_project_frozen_example():
    A = QuadForm(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
    p = BasePoint(np.array([1.0, 0.0, 1.0]), 0.5 + 0.0j)
    pr = project(A, IndexSet((0, 1)), p)
    assert pr.interior
    np.testing.assert_allclose(pr.nu, [0.5, 1.0])
    # hull distance: G mu_act^2 + det A |eta|^2 = 1.5 + 3 * 0.25
    assert pr.dist == pytest.approx(1.5)


def test_projection_foot_on_stratum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        N = int(rng.integers(2, 5))
        A = random_spd(rng, N)
        members = (0,) + tuple(sorted(
            rng.choice(np.arange(1, N + 1),
                       size=int(rng.integers(1, N)), replace=False).tolist()))
        I = IndexSet(members)
        p = BasePoint(rng.normal(size=N) * 2.0, complex(*rng.normal(size=2)))
        pr = project(A, I, p)
        for lab in I.active:
            assert pr.foot.mu[lab - 1] == pytest.approx(0.0, abs=1e-13)
        assert pr.foot.eta == 0j
        assert pr.dist == pytest.approx(
            anorm(A, BasePoint(p.mu - pr.foot.mu, p.eta - pr.foot.eta)), rel=1e-12)


def test_closed_distance_against_scipy():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(500):
        N = int(rng.integers(2, 5))
        A = random_spd(rng, N)
        size = int(rng.integers(2, N + 2))
        members = tuple(sorted(rng.choice(np.arange(0, N + 1), size=size,
                                          replace=False).tolist()))
        I = IndexSet(members)
        p = BasePoint(rng.normal(size=N) * 2.5, complex(*rng.normal(size=2)))
        got = dist_closed_stratum(A, I, p)
        want = oracle_closed_dist(A, I, p)
        worst = max(worst, abs(got - want) / max(1.0, want))
    assert worst < 1e-9


def test_dist_locus_is_min_over_pairs():
    rng = np.random.default_rng(23)
    for _ in range(50):
        N = 3
        A = random_spd(rng, N)
        p = BasePoint(rng.normal(size=N) * 2.0, complex(*rng.normal(size=2)))
        d = dist_locus(A, p)
        pairs = [dist_closed_stratum(A, I, p) for I in all_strata(N) if len(I) == 2]
        assert d == pytest.approx(min(pairs), rel=1e-12)


@pytest.mark.parametrize("min_size", [0, 1, 5])
def test_dist_locus_refuses_min_size_outside_the_strata(min_size):
    # strata of N = 3 have 2..4 labels; above 4 numpy once raised on the
    # empty minimum, and below 2 the size filter passed silently
    p = BasePoint(np.array([0.5, 0.5, 0.5]), 0.1)
    with pytest.raises(ValueError, match=rf"min_size {min_size} outside 2\.\.4"):
        dist_locus(QuadForm.identity(3), p, min_size)
    assert dist_locus(QuadForm.identity(3), p, 4) >= dist_locus(QuadForm.identity(3), p, 2)


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.2, 5.0))
@settings(max_examples=50, deadline=None)
def test_distance_scale_invariance(seed, lam):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 5))
    A = random_spd(rng, N)
    I = IndexSet((0, int(rng.integers(1, N + 1))))
    p = BasePoint(rng.normal(size=N) * 2.0, complex(*rng.normal(size=2)))
    q = BasePoint(lam * p.mu, lam * p.eta)
    assert dist_closed_stratum(A, I, q) == pytest.approx(
        lam * dist_closed_stratum(A, I, p), rel=1e-10)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_zero_swap_involution(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 5))
    A = random_spd(rng, N)
    size = int(rng.integers(2, N + 1))
    members = tuple(sorted(rng.choice(np.arange(1, N + 1), size=size,
                                      replace=False).tolist()))
    I = IndexSet(members)  # no zero: the swap acts nontrivially
    p = BasePoint(rng.normal(size=N), complex(*rng.normal(size=2)))
    A2, I2, p2, S = zero_swap(A, I, p)
    assert I2.contains_zero
    # the swap preserves the quadratic form and the point's norm
    np.testing.assert_allclose(S.T @ A2.entries @ S, A.entries, atol=1e-12)
    np.testing.assert_allclose(S @ p2.mu, p.mu, atol=1e-12)
    # distances agree through the relabeling
    assert dist_closed_stratum(A, I, p) == pytest.approx(
        dist_closed_stratum(A2, I2, p2), rel=1e-10)


def test_pythagoras_nested_hulls():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(500):
        N = int(rng.integers(2, 5))
        A = random_spd(rng, N)
        p = BasePoint(rng.normal(size=N) * 3.0, complex(*rng.normal(size=2)))
        size_i = int(rng.integers(2, N + 1))
        members = (0,) + tuple(sorted(
            rng.choice(np.arange(1, N + 1), size=size_i - 1,
                       replace=False).tolist()))
        I = IndexSet(members)
        rest = [m for m in range(1, N + 1) if m not in members]
        if not rest:
            continue
        J = IndexSet(members + tuple(rest))
        pr = project(A, I, p)
        dj = project(A, J, p).dist
        dj_foot = project(A, J, pr.foot).dist
        gap = abs(dj ** 2 - pr.dist ** 2 - dj_foot ** 2)
        worst = max(worst, gap / max(1.0, dj ** 2))
    assert worst < 1e-10


def test_rho_matches_direct_schur():
    A = QuadForm(np.array([[2.0, 0.4, 0.1], [0.4, 1.5, 0.2],
                           [0.1, 0.2, 1.1]]))
    I = IndexSet((0, 1))
    J = IndexSet((0, 1, 2))
    p = BasePoint(np.array([0.3, 2.0, -1.0]), 0.2 + 0.1j)
    rho = rho_IJ(A, I, J, p)
    # K = {2}; transverse form of label 2 against remaining {3}
    a22 = A.entries[1, 1] - A.entries[1, 2] ** 2 / A.entries[2, 2]
    pr = project(A, I, p)
    nu2 = pr.nu[0]  # complement labels of I are (2, 3)
    assert rho == pytest.approx(math.sqrt(a22) * abs(nu2), rel=1e-12)


@pytest.mark.parametrize("N", [3, 4])
def test_rho_every_pair_matches_direct_schur(N):
    # every I strictly inside J, I with or without the label 0: in I's
    # swapped frame the foot's nu = mu_c + A_cc^-1 A_ca mu_a, and rho is
    # the K block of A_cc reduced by the other transverse labels, on nu_K
    rng = np.random.default_rng(41 + N)
    A = random_spd(rng, N)
    p = BasePoint(rng.normal(size=N) * 3.0, complex(*rng.normal(size=2)))
    for I in all_strata(N)[:-1]:   # all but the full label set, the last
        A2, I2, p2, _ = zero_swap(A, I, p)
        a = [m - 1 for m in I2.active]
        c = [m - 1 for m in I2.active_complement(N)]
        E = A2.entries
        nu = p2.mu[c] + np.linalg.solve(E[np.ix_(c, c)], E[np.ix_(c, a)] @ p2.mu[a])
        for J in all_strata(N):
            if not set(I) < set(J):
                continue
            lo = I.members[0]
            J2 = {lo if j == 0 else 0 if j == lo else j for j in J.members}
            inK = np.array([m + 1 in J2 for m in c])
            k, r = np.array(c)[inK], np.array(c)[~inK]
            red = E[np.ix_(k, k)] - E[np.ix_(k, r)] @ np.linalg.solve(E[np.ix_(r, r)], E[np.ix_(r, k)])
            want = math.sqrt(nu[inK] @ red @ nu[inK])
            assert rho_IJ(A, I, J, p) == pytest.approx(want, rel=1e-10, abs=1e-12), (I, J)


def test_rho_requires_proper_subset():
    A = QuadForm.identity(3)
    p = BasePoint(np.ones(3), 0.5 + 0j)
    with pytest.raises(ValueError):
        rho_IJ(A, IndexSet((0, 1)), IndexSet((0, 1)), p)


def test_region_constants_validation():
    assert RegionConstants().c0 == 32.0
    assert RegionConstants().level(1) == pytest.approx(64.0)
    assert RegionConstants().level(2) == pytest.approx(1024.0)
    assert RegionConstants().level(3) == 16384.0
    assert RegionConstants().cprime() == pytest.approx(4096.0)


def test_chat_for_identity_form():
    assert RegionConstants().chat(QuadForm.identity(3)) == pytest.approx(2.0)


# sha256 over repr(sorted(tags)) of the 2000 points below, as the
# superset-by-superset implementation gave them
COVERING_TAGS_SHA256 = "f730634563e3196ab5fd59047a676e492e3a09cc49c765c127f9e3ded627b334"


def tags(rep) -> set[str]:
    """A region report as strings, one per region it names."""
    out = {f"near:{list(I.members)}" for I in rep.near}
    out |= {f"core:{list(I.members)}" for I in rep.near_core}
    if rep.generic:
        out.add("generic")
    return out | {f"far:{s}" for s in rep.far_levels}


def region_point(rng, N):
    scale = 10.0 ** rng.uniform(-1, 3)
    return BasePoint(rng.normal(size=N) * scale,
                     complex(*rng.normal(size=2)) * scale)


def test_region_covering_and_tags():
    # every sampled point lands in at least one region of the decomposition
    rng = np.random.default_rng(41)
    A = random_spd(rng, 3)
    consts = RegionConstants()
    uncovered = 0
    digest = hashlib.sha256()
    for _ in range(2000):
        rep = region_membership(A, consts, region_point(rng, 3))
        if not rep.covered:
            uncovered += 1
        digest.update(repr(sorted(tags(rep))).encode())
    assert uncovered == 0
    assert digest.hexdigest() == COVERING_TAGS_SHA256


def test_region_covering_n4():
    rng = np.random.default_rng(43)
    consts = RegionConstants()
    for _ in range(4):
        A = random_spd(rng, 4)
        for _ in range(250):
            assert region_membership(A, consts, region_point(rng, 4)).covered


def test_boundary_distance_against_scipy():
    # the boundary is the union of the closed strata of the proper supersets
    rng = np.random.default_rng(19)
    worst = 0.0
    for t in range(60):
        N = 2 + t % 3
        A = random_spd(rng, N)
        p = BasePoint(rng.normal(size=N) * 2.5, complex(*rng.normal(size=2)))
        proper = all_strata(N)[:-1]   # all but the full label set, the last
        I = proper[int(rng.integers(len(proper)))]
        want = min(oracle_closed_dist(A, J, p) for J in all_strata(N)
                   if set(I) < set(J))
        got = dist_boundary(A, I, p)
        worst = max(worst, abs(got - want) / max(1.0, want))
    assert worst < 1e-9


def test_region_membership_never_inverts_the_form(monkeypatch):
    # the stratum layer reads no A^{-1}, so a fresh form, whose inverse is
    # computed on first read, never computes it in region_membership
    def no_inverse(self):
        raise AssertionError("QuadForm.inv was read")

    monkeypatch.setattr(QuadForm, "inv", property(no_inverse))
    rng = np.random.default_rng(30)
    for N in (2, 3, 4):
        for _ in range(5):
            region_membership(random_spd(rng, N), RegionConstants(), region_point(rng, N))


def test_stratum_table_is_built_once(monkeypatch):
    calls = []
    blocks = locus.schur_blocks
    monkeypatch.setattr(locus, "schur_blocks",
                        lambda *args: calls.append(args) or blocks(*args))
    rng = np.random.default_rng(29)
    A = random_spd(rng, 4)
    consts = RegionConstants()
    region_membership(A, consts, region_point(rng, 4))
    # one stacked call per subset size with a transverse label, 2 to N
    # labels, on a slice of the table's stack split at the size's active
    # count: the full label set's G is its own M
    assert [(M.shape, a) for M, a in calls] == [((10, 4, 4), 1), ((10, 4, 4), 2),
                                                ((5, 4, 4), 3)]
    T = locus._pass(A, np.zeros((0, 4)), np.zeros(0)).table
    assert all(np.shares_memory(M, T.M) for M, _ in calls)
    # later distance queries on the same form add no Schur work
    p = region_point(rng, 4)
    region_membership(A, consts, p)
    dist_locus(A, p)
    dist_boundary(A, IndexSet((1, 3)), p)
    project(A, IndexSet((1, 3)), p)
    assert len(calls) == 3
    # the reduced glue blocks of a (form, row) are built on its first glue
    # query, one per set K of its transverse labels: 7 for (0, 1) at N = 4
    I = IndexSet((0, 1))
    glue.glue_weight(A, I, consts, p)
    assert len(calls) == 3 + 7
    # and every later point reads them
    glue.glue_weight(A, I, consts, region_point(rng, 4))
    rho_IJ(A, I, IndexSet((0, 1, 3)), region_point(rng, 4))
    assert len(calls) == 3 + 7


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_stratum_table_matches_per_subset_schur(N):
    # the stacked table is bitwise the per-subset build: M = S^T A S,
    # symmetrized and ordered active-first (the table keeps it), and G
    # symmetrized, then one schur_blocks call per subset, the full label
    # set (no transverse labels) included; pg holds every row's raveled
    # P block (c x A), then every row's raveled G block (A x A)
    rng = np.random.default_rng(300 + N)
    for _ in range(20):
        A = random_spd(rng, N)
        T = locus._table(A)
        sizes = np.array([len(J) for J in T.strata])
        assert sizes[-1] == N + 1
        n_act, n_comp = sizes - 1, N + 1 - sizes
        p_end = np.cumsum(n_comp * n_act)
        g_end = p_end[-1] + np.cumsum(n_act ** 2)
        assert len(T.pg) == g_end[-1]
        for j, J in enumerate(T.strata):
            _, J2, _, S = zero_swap(A, J, BasePoint(np.zeros(N), 0j))
            comp = J2.active_complement(N)
            M = S.T @ A.entries @ S
            M = 0.5 * (M + M.T)
            M = block(M, J2.active + comp, J2.active + comp)
            a, c = n_act[j], n_comp[j]
            P, G = schur_blocks(M, a)
            assert bitwise_equal(T.pg[p_end[j] - c * a:p_end[j]].reshape(c, a), P)
            assert bitwise_equal(T.pg[g_end[j] - a * a:g_end[j]].reshape(a, a),
                                 0.5 * (G + G.T))
            assert bitwise_equal(T.M[j], M)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_batched_pass_rows_match_one_row_passes(N):
    # a point's row of the pass is bitwise the same in any batch: the
    # whole batch, sub-batches of 7, and each point alone
    rng = np.random.default_rng(500 + N)
    A = random_spd(rng, N)
    pts = [region_point(rng, N) for _ in range(64)]
    mu, eta = np.array([p.mu for p in pts]), np.array([p.eta for p in pts])
    whole = locus._pass(A, mu, eta)
    for b in range(len(pts)):
        one = locus._pass(A, mu[b:b + 1], eta[b:b + 1])
        k = b - b % 7
        part = locus._pass(A, mu[k:k + 7], eta[k:k + 7])
        for name in ("nu", "d", "closed", "boundary"):
            assert bitwise_equal(getattr(whole, name)[b], getattr(one, name)[0]), name
            assert bitwise_equal(getattr(whole, name)[b], getattr(part, name)[b % 7]), name


_CHECKED_ONCE = [
    ("region_membership", 0, lambda A, I, p: region_membership(A, RegionConstants(), p)),
    ("dist_locus", 0, lambda A, I, p: dist_locus(A, p)),
    ("project", 0, lambda A, I, p: project(A, I, p)),
    ("dist_closed_stratum", 0, lambda A, I, p: dist_closed_stratum(A, I, p)),
    ("dist_boundary", 0, lambda A, I, p: dist_boundary(A, I, p)),
    ("glue_weight", 0, lambda A, I, p: glue.glue_weight(A, I, RegionConstants(), p)),
    ("glue_weight_batch", 1, lambda A, I, p: glue.glue_weight_batch(
        A, I, RegionConstants(), p.mu[None], np.array([p.eta]))),
]


@pytest.mark.parametrize("name, checks, call", _CHECKED_ONCE,
                         ids=[c[0] for c in _CHECKED_ONCE])
def test_each_input_is_checked_once(monkeypatch, name, checks, call):
    # a BasePoint is held finite at construction and a batch at its entry,
    # so the stratum pass reads its rows unchecked: the one-point functions
    # check nothing again, and the batch entry checks its rows once
    calls = []

    def spy(*args):
        calls.append(args)
        return check_batch(*args)

    for module in (locus, glue):
        monkeypatch.setattr(module, "check_batch", spy, raising=False)
    call(QuadForm.identity(3), IndexSet((0, 1, 2)), BasePoint(np.array([0.7, 0.2, 0.9]), 0.3j))
    assert len(calls) == checks, name


@pytest.mark.parametrize("call", [c[2] for c in _CHECKED_ONCE[:-1]],
                         ids=[c[0] for c in _CHECKED_ONCE[:-1]])
def test_a_point_of_another_dimension_is_refused(call):
    with pytest.raises(ValueError, match="dimension mismatch between form and point"):
        call(QuadForm.identity(3), IndexSet((0, 1, 2)), BasePoint(np.array([0.7, 0.2]), 0.3j))


def _pass_arrays(A, consts, p):
    at = locus._pass(A, p.mu[None], np.array([p.eta]))
    return ([a.tobytes() for a in (at.nu, at.d, at.closed, at.boundary)],
            sorted(tags(region_membership(A, consts, p))))


def test_table_shared_across_threads():
    # threads racing to build one form's table at worst build it twice;
    # every pass and region report matches a serial run on a form with
    # equal entries
    rng = np.random.default_rng(37)
    entries = random_spd(rng, 4).entries
    pts = [region_point(rng, 4) for _ in range(64)]
    consts = RegionConstants()
    serial = QuadForm(entries)
    want = [_pass_arrays(serial, consts, p) for p in pts]
    shared = QuadForm(entries)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda p: _pass_arrays(shared, consts, p), pts,
                                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_dist_boundary_full_set_infinite():
    A = QuadForm.identity(3)
    p = BasePoint(np.ones(3), 1.0 + 0j)
    assert dist_boundary(A, IndexSet((0, 1, 2, 3)), p) == math.inf
