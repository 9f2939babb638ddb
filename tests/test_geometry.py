import copy
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlab import geometry, holo, kernels
from ghlab.ansatz import FirstOrderField
from ghlab.checks import random_spd
from ghlab.glue import glue_weight_batch
from ghlab.holo import GammaSpec, gamma_family
from ghlab.locus import RegionConstants
from ghlab.quadrature import QuadratureSpec, power_kernel_integral
from ghlab.geometry import (
    BasePoint,
    IndexSet,
    QuadForm,
    ball_volume,
    block,
    check_batch,
    laplace_terms,
    schur_blocks,
    schur_complement,
)


def spd(entries):
    return QuadForm(np.array(entries, dtype=float))


class TestQuadForm:
    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            QuadForm(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            QuadForm(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("entries", [[[math.nan]], [[1.0, math.nan], [math.nan, 1.0]],
                                         [[math.inf]]], ids=["nan", "nan-off-diagonal", "inf"])
    def test_rejects_non_finite(self, entries):
        # refused before any arithmetic: the suite turns a RuntimeWarning
        # into an error, and a NaN passes every comparison it meets
        with pytest.raises(ValueError, match="non-finite"):
            QuadForm(entries)

    def test_rejects_an_empty_matrix(self):
        # refused by name before the scale reduction, which has no identity
        # on no entries and would raise numpy's own error
        with pytest.raises(ValueError, match="quadratic form is empty"):
            QuadForm(np.zeros((0, 0)))

    def test_identity(self):
        A = QuadForm.identity(3)
        assert A.det == pytest.approx(1.0)
        assert A.condition == pytest.approx(1.0)

    def test_inverse_is_symmetrized_once(self):
        # computed on first read, bitwise the symmetrized inverse, read-only
        # and kept: a second read returns the same array
        A = spd([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 0.9]])
        inv = np.linalg.inv(A.entries)
        assert A.inv.tobytes() == (0.5 * (inv + inv.T)).tobytes()
        assert not A.inv.flags.writeable
        assert A.inv is A.inv


def test_block_is_one_based():
    M = np.arange(1, 10, dtype=float).reshape(3, 3)
    np.testing.assert_array_equal(block(M, [1, 3], [2]), [[2.0], [8.0]])


@pytest.mark.parametrize("n, S", [(5, (1,)), (5, (2, 4)), (4, (1, 2, 3)), (3, (1, 2, 3))])
def test_stacked_schur_blocks_match_each_slice(n, S):
    # a stack (7, n, n) gathered active-first with block is bitwise its
    # slices one at a time, with an empty complement too, and each slice's
    # split is bitwise the explicit blocks: P = M_cc^-1 M_cS solved and
    # G = M_S - M_Sc P
    rng = np.random.default_rng(n + len(S))
    M = np.stack([random_spd(rng, n).entries for _ in range(7)])
    Sc = [k for k in range(1, n + 1) if k not in S]
    order = [*S, *Sc]
    P, G = schur_blocks(block(M, order, order), len(S))
    assert P.shape == (7, len(Sc), len(S)) and G.shape == (7, len(S), len(S))
    for k in range(7):
        P_k, G_k = schur_blocks(block(M[k], order, order), len(S))
        assert P[k].tobytes() == P_k.tobytes()
        assert G[k].tobytes() == G_k.tobytes()
        want_P = np.linalg.solve(block(M[k], Sc, Sc), block(M[k], Sc, S))
        assert P_k.tobytes() == want_P.tobytes()
        assert G_k.tobytes() == (block(M[k], S, S) - block(M[k], S, Sc) @ want_P).tobytes()


def test_base_point_has_no_dict():
    # slotted: a pool of 16,384 N = 4 points took 241 B a point with a
    # __dict__ and takes 200 B without
    p = BasePoint(np.array([1.0, -2.0]), 0.5j)
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.eta = 1.0


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["deepcopy", "pickle"])
def test_a_copied_base_point_keeps_its_invariant(clone):
    # a deepcopy or an unpickled point once had a writable mu, so a NaN
    # written into it reached glue_weight, which read weight 1.0 for it
    p = BasePoint([0.1, 0.2, 1e6], 0.3 - 0.1j)
    q = clone(p)
    assert type(q) is BasePoint
    assert q.mu.tolist() == p.mu.tolist() and q.eta == p.eta
    assert not q.mu.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        q.mu[0] = math.nan


_QUAD = QuadratureSpec()
_GAMMA_2 = GammaSpec(QuadForm.identity(2), IndexSet((0, 1, 2)), _QUAD)
_GAMMA_3 = GammaSpec(QuadForm.identity(3), IndexSet((0, 1, 2)), _QUAD)
_FAMILY_3 = kernels._family(QuadForm.identity(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("N, call", [
    (3, lambda mu, eta: kernels.alpha_family(QuadForm.identity(3), _QUAD, mu, eta)),
    (4, lambda mu, eta: kernels.alpha_family(QuadForm.identity(4), _QUAD, mu, eta)),
    (2, lambda mu, eta: FirstOrderField(QuadForm.identity(2), _QUAD).jet(mu, eta)),
    (3, lambda mu, eta: FirstOrderField(QuadForm.identity(3), _QUAD).jet(mu, eta)),
    (2, lambda mu, eta: gamma_family(_GAMMA_2, (1, 2), mu, eta)),
    (3, lambda mu, eta: gamma_family(_GAMMA_3, (1, 2), mu, eta)),
    (3, lambda mu, eta: glue_weight_batch(QuadForm.identity(3), IndexSet((0, 1, 2)),
                                          RegionConstants(), mu, eta)),
    # the engine's own refusal, for a caller that skips check_batch
    (3, lambda mu, eta: power_kernel_integral(_FAMILY_3.Q, _FAMILY_3.c_eta, mu, eta,
                                              _FAMILY_3.M, _FAMILY_3.power, _QUAD)),
], ids=["alpha-n3", "alpha-n4", "jet-n2", "jet-n3", "gamma-n2", "gamma-n3", "glue-n3",
        "engine-n3"])
def test_non_finite_batch_rows_are_refused_by_row(N, call, bad):
    # each once ended in an UnboundLocalError or a numpy reduction error,
    # and the glue weight of a nan row read 1.0
    mu = np.full((3, N), 0.7)
    eta = np.full(3, 0.3 + 0.2j)
    mu[1, 0] = bad
    with pytest.raises(ValueError, match=r"row 1 has (non-finite entries|a sheet distance "
                                         r"that is not a number)"):
        call(mu, eta)


def test_check_batch_passes_finite_rows_whose_squares_overflow():
    # the sum of squares overflows here; the exact test then finds every
    # entry finite
    mu, eta = check_batch(np.full((2, 2), 1e200), np.full(2, -1e200j), 2)
    assert mu[1, 1] == 1e200 and eta[1] == -1e200j


@pytest.mark.parametrize("mu, eta, refused", [
    ([math.nan, 1.0], 0.5j, True),
    ([1.0, -math.inf], 0.5j, True),
    ([1.0, 2.0], complex(math.nan, 0.5), True),
    ([1.0, 2.0], complex(0.5, math.inf), True),
    ([1e200, 1e200], 1e200j, False),
], ids=["nan-mu", "inf-mu", "nan-eta", "inf-eta", "squares-overflow"])
def test_base_point_refuses_non_finite_entries(mu, eta, refused):
    # a point is checked once, at construction; its finite-entry test is
    # check_batch's, so finite entries whose squares overflow pass without
    # a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(ValueError, match="base point has non-finite entries"):
                BasePoint(np.array(mu), eta)
        else:
            p = BasePoint(np.array(mu), eta)
            assert p.mu.tolist() == mu and p.eta == eta


@pytest.mark.parametrize("mu", [[[1.0, 2.0]], 3.0, []], ids=["2-d", "scalar", "empty"])
def test_base_point_refuses_mu_of_the_wrong_shape(mu):
    # each was once accepted, and flat_field then failed in numpy's
    # concatenate, with an IndexError or on an empty reduction
    with pytest.raises(ValueError, match="base point mu is not a non-empty 1-D array"):
        BasePoint(mu, 0.5)


def test_base_points_compare_and_hash_by_value():
    # the generated __eq__ once compared mu as arrays, a ValueError for
    # N >= 2, and hash failed on the ndarray field
    p, q = BasePoint([1.0, 2.0], 0.5j), BasePoint([1.0, 2.0], 0.5j)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != BasePoint([1.0, 2.5], 0.5j) and p != BasePoint([1.0, 2.0], 0.5)
    assert p != BasePoint([1.0, 2.0, 0.0], 0.5j) and p != "p"
    # -0.0 == 0.0, so the points are equal and hash alike
    z, w = BasePoint([0.0, -0.0], complex(-0.0, 0.0)), BasePoint([-0.0, 0.0], 0j)
    assert z == w and hash(z) == hash(w)


def test_indexset_refuses_a_label_that_is_not_an_integer():
    # IndexSet((0, 1.7)) once became (0, 1)
    with pytest.raises(TypeError):
        IndexSet((0, 1.7))
    assert IndexSet((np.int64(2), 0)).members == (0, 2)


def test_indexset_basics():
    I = IndexSet((2, 0, 1))
    assert I.members == (0, 1, 2)
    assert I.contains_zero
    assert I.active == (1, 2)
    assert I.active_complement(4) == (3, 4)
    J = IndexSet((1, 3))
    assert not J.contains_zero
    assert J.active == (1, 3)
    with pytest.raises(ValueError):
        IndexSet((0,)).require_stratum(3)
    with pytest.raises(ValueError):
        IndexSet((0, 5)).require_stratum(3)


def test_schur_complement_frozen_example():
    A = spd([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    G = schur_complement(A, IndexSet((0, 1)))
    assert G.entries.shape == (1, 1)
    assert G.entries[0, 0] == pytest.approx(1.5)


def test_schur_complement_is_built_once_per_active_set():
    A = spd([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.1]])
    G = schur_complement(A, IndexSet((0, 2)))
    # the label 0 is dropped, so (2, 3) and (0, 2, 3) name different sets
    assert schur_complement(A, IndexSet((2,))) is G
    assert schur_complement(A, IndexSet((0, 2, 3))) is not G
    # a form with equal entries has its own cache, with equal values
    np.testing.assert_array_equal(
        schur_complement(spd(A.entries), IndexSet((0, 2))).entries, G.entries)


@given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_schur_eigenvalues_in_interval(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n)
    w = np.linalg.eigvalsh(A.entries)
    lam, Lam = w[0], w[-1]
    size = int(rng.integers(1, n))
    active = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size,
                                     replace=False).tolist()))
    G = schur_complement(A, IndexSet((0,) + active))
    gw = np.linalg.eigvalsh(G.entries)
    lo = lam * (lam / Lam) ** (n - 1)
    assert gw[0] >= lo - 1e-12
    assert gw[-1] <= Lam + 1e-12


def test_laplace_A_on_quadratic():
    # u = mu1^2 + mu1 mu2 + x^2 - y^2 has the constant Hessian H; the
    # operator's terms sum to its value to roundoff
    A = spd([[2.0, 0.5], [0.5, 1.5]])
    H = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, -2.0]])
    mu_terms, eta_part = laplace_terms(A, H)
    Ainv = A.inv
    want = 2.0 * Ainv[0, 0] + Ainv[0, 1] + Ainv[1, 0] + 0.0
    assert float(np.sum(mu_terms)) + eta_part == pytest.approx(want, rel=1e-14)


def test_ball_volume_known_values():
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0)


_KERNEL_3 = kernels.KernelSpec(QuadForm.identity(3), (1, 2))
_P3 = BasePoint(np.array([0.7, -0.4, 1.1]), 0.3 + 0.2j)
_P2 = BasePoint(np.array([0.7, -0.4]), 0.3 + 0.2j)


def test_one_row_names_check_their_point_once(monkeypatch):
    # a BasePoint is checked at construction; alpha_grad and gamma_sum_check
    # once passed its row through check_batch a second time
    original, calls = geometry.check_batch, []

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("ghlab") and getattr(module, "check_batch", None) is original:
            monkeypatch.setattr(module, "check_batch", spy)
    kv = kernels.alpha_grad(_KERNEL_3, _QUAD, _P3)
    gap = holo.gamma_sum_check(_GAMMA_2, _P2).scaled_gap
    assert calls == []
    # the same numbers as the checked batch names
    _, batch = kernels.alpha_family(_KERNEL_3.A, _QUAD, _P3.mu[None], np.array([_P3.eta]),
                                    True, _KERNEL_3.labels)
    assert kv.value == batch.value[0, 0] and kv.gradient.tolist() == batch.gradient[0, 0].tolist()
    gam = gamma_family(_GAMMA_2, (0, 1, 2), _P2.mu[None], np.array([_P2.eta]))
    assert gap == abs(sum(gam.value[:, 0].tolist()) - 1.0 / _P2.eta) * abs(_P2.eta)
    assert len(calls) == 2


@pytest.mark.parametrize("call", [
    lambda p: kernels.alpha(_KERNEL_3, _QUAD, p),
    lambda p: kernels.alpha_grad(_KERNEL_3, _QUAD, p),
    lambda p: holo.gamma(_GAMMA_3, 1, p),
    lambda p: holo.gamma_sum_check(_GAMMA_3, p),
], ids=["alpha", "alpha_grad", "gamma", "gamma_sum_check"])
def test_one_row_names_refuse_a_point_of_another_dimension(call):
    with pytest.raises(ValueError, match="dimension mismatch between form and point"):
        call(_P2)
