"""Stratified flat geometry of the degeneration locus.

The base carries a family of affine strata indexed by subsets I of the
label set {0, ..., N} with at least two members: the image of the
coordinate planes where the labelled coordinates vanish upstairs.  In the
anisotropic flat metric induced by an SPD matrix A, distances to strata,
feet of perpendiculars, and the region decomposition used by the gluing
construction are all exactly computable, and this module computes them.

Subsets not containing the label 0 are handled through the involutive
change of basis that swaps label 0 with the smallest member; the change
preserves A-distances and determinants, so every formula below is stated
for subsets containing 0 and applied after the swap.

Only the point changes between queries.  Each subset's swap S_J, labels,
supersets and active-first order are laid out once per N; per form only
the stratum table is built, on first use: the gathered S_J^T A S_J and, by
one ``schur_blocks`` call per subset size, the solves P_J and Schur blocks
G_J, as nonzero entries of a block-diagonal P and G.  A batch of points
takes a fixed number of array operations for all strata's feet and hull
distances, which distances, projections, regions and glue weights read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from types import SimpleNamespace
from typing import ClassVar, NamedTuple

import numpy as np

from .geometry import BasePoint, IndexSet, QuadForm, _einsum, _row, block, schur_blocks
from .geometry import schur_complement  # noqa: F401  perfbench/tracing.py patches it here

__all__ = [
    "Projection",
    "RegionConstants",
    "RegionReport",
    "project",
    "dist_closed_stratum",
    "dist_boundary",
    "dist_locus",
    "region_membership",
    "all_strata",
]


@dataclass(frozen=True)
class Projection:
    """Foot of the perpendicular from a point onto a stratum's affine hull.

    ``nu`` lists the transverse coordinates of the foot (in the swapped
    frame when the subset misses 0); the foot lies on the stratum itself
    precisely when every entry is positive, and in that case ``dist`` is
    the distance to the stratum.  It is always the distance to the hull.
    """

    foot: BasePoint
    interior: bool
    nu: np.ndarray
    dist: float


@dataclass(frozen=True)
class RegionConstants:
    """Constants steering the covering regions.

    c0 is the main aspect-ratio constant; the rest follow from it and the
    form.  ``chat(A)``, the foot-comparison constant, is
    1 + cond(A)^((N + 2) / 2): any valid upper bound works, and a larger
    one only shrinks the innermost regions, so it may exceed c0 (57 at
    N = 3 with condition number 5).  ``level(s)`` = 64 16^(s - 1) is the
    separation threshold of the depth s, an int, and ``cprime()`` = 4 c0^2
    the collar margin of the gluing cutoff.
    """

    c0: ClassVar[float] = 32.0

    def chat(self, A: QuadForm) -> float:
        return 1.0 + A.condition ** (0.5 * (A.n + 2))

    def level(self, s: int) -> float:
        return 64.0 * 16.0 ** (s - 1)

    def cprime(self) -> float:
        return 4.0 * self.c0 ** 2


def all_strata(N: int) -> list[IndexSet]:
    """Every stratum index subset of {0..N}: at least two labels, by size."""
    return [IndexSet(members) for k in range(2, N + 2)
            for members in combinations(range(N + 1), k)]


def _swap_labels(N: int, I: IndexSet) -> tuple[IndexSet, np.ndarray]:
    """(I', S) for the swap of label 0 with I's smallest member."""
    S = np.eye(N)
    if I.contains_zero:
        return I, S
    S[:, I.members[0] - 1] = -1.0
    return IndexSet((0,) + I.members[1:]), S


@lru_cache(maxsize=None)
def _layout(N: int) -> SimpleNamespace:
    """The read-only rows of every stratum table on N; no form changes them.

    Row j is the subset strata[j] (an object array; inner, a tuple, has
    all but the last, the full label set), with swap S[j] (S is (R, N, N))
    and, in the swapped frame, transverse labels comp[j]; rows of size s
    start at size_cut[s - 2], and sizes holds each size with a transverse
    label as (first row, end row, active count).  Indexing a raveled stack
    (R, N, N) with gather reorders each row's labels as its active ones,
    then its transverse ones, so all rows of one subset size share one
    block layout.  C stacks the rows' selections of S mu on the active
    labels (n_a, row j's from act_cut[j]), then on the transverse ones
    (n_c, row j's at nu_at[j] of them), then a zero row for a pad, then the
    active ones again, one per nonzero entry of the block-diagonal P
    (sum c x sum A) and G (sum A x sum A), row-major and P first: each
    row's raveled P block, then each G block, with each row of P and G
    starting at pg_off.  proper[k, j, 0] is 0 if strata[j] strictly
    contains strata[k], else +inf.  n_a, n_c, sizes and nu_at hold Python
    ints, so no call indexes with a numpy scalar.
    """
    L = SimpleNamespace(strata=np.fromiter(all_strata(N), dtype=object))
    L.row = {J.members: j for j, J in enumerate(L.strata)}
    L.inner = tuple(L.strata[:-1])
    L.size = np.array([len(J) for J in L.strata])
    frames = [_swap_labels(N, J) for J in L.strata]
    L.comp = [J2.active_complement(N) for J2, _ in frames]
    L.S = np.stack([S for _, S in frames])
    order = np.array([[m - 1 for m in J2.active + comp]
                      for (J2, _), comp in zip(frames, L.comp)], dtype=np.intp)
    flat = N * np.arange(len(L.strata))[:, None] + order   # rows of the raveled stack
    L.gather = N * flat[:, :, None] + order[:, None, :]
    size_off = np.searchsorted(L.size, np.arange(2, N + 3))
    L.size_cut, r = size_off[:-1], size_off.tolist()
    L.sizes = tuple((r[s], r[s + 1], s + 1) for s in range(N - 1))   # sizes 2 to N
    act_off, comp_off = (np.concatenate([[0], np.cumsum(n)]) for n in (L.size - 1, N + 1 - L.size))
    L.act_cut, L.comp_cut = act_off[:-1], comp_off[:-1]
    L.nu_at = tuple(map(slice, comp_off[:-1].tolist(), comp_off[1:].tolist()))
    # the row owning each active and each transverse position
    ja, jc = (np.repeat(np.arange(len(L.size)), n) for n in (L.size - 1, N + 1 - L.size))
    L.n_a, L.n_c = len(ja), len(jc)
    pg_row, pg_col = np.nonzero(np.concatenate([jc[:, None] == ja, ja[:, None] == ja]))
    L.pg_off = np.flatnonzero(np.diff(pg_row, prepend=-1))
    S_rows = L.S.reshape(-1, N)[flat]
    active = np.arange(N) < L.size[:, None] - 1
    L.C = np.concatenate([S_rows[active], S_rows[~active], np.zeros((1, N)),
                          S_rows[active][pg_col]])
    b = np.array([sum(1 << m for m in J) for J in L.strata])   # each subset's label bits
    L.proper = np.where((b[:, None] | b == b) & (b[:, None] < b), 0.0, np.inf)[..., None]
    for a in vars(L).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return L


def _table(A: QuadForm) -> SimpleNamespace:
    """A's stratum table: the layout of its N, plus each row's
    M_J = S_J^T A S_J, and pg, the nonzero entries of the block-diagonal P
    and G in the layout's order: per subset size, the stacked solves
    P = A_cc^{-1} A_cI and Schur blocks G, symmetrized as QuadForm would.

    The M_J are one stacked matmul, symmetrized and gathered active-first;
    each subset size's slice of them makes one ``schur_blocks`` call but the
    full label set's, whose row has no transverse labels: its G is its M,
    symmetric already.
    """
    T = SimpleNamespace(**vars(_layout(A.n)))
    M = T.S.swapaxes(-1, -2) @ A.entries @ T.S
    T.M = M = (0.5 * (M + M.swapaxes(-1, -2))).reshape(-1)[T.gather]
    PG = [schur_blocks(M[r0:r1], a) for r0, r1, a in T.sizes]
    T.pg = np.concatenate([P for P, _ in PG] + [0.5 * (G + G.swapaxes(-1, -2)) for _, G in PG]
                          + [M[-1]], axis=None)
    return T


class _Pass(NamedTuple):
    """A batch's pass over a stratum table: per point (axis 0) each row's
    transverse coordinates nu (row j's at nu_at[j]), hull distance d and
    least d over its interior supersets (closed) and proper ones."""

    table: SimpleNamespace
    nu: np.ndarray
    d: np.ndarray
    closed: np.ndarray
    boundary: np.ndarray


def _pass(A: QuadForm, mu: np.ndarray, eta: np.ndarray) -> _Pass:
    """Hull data of every stratum at the batch mu (B, N), eta (B,), whose
    rows its caller has held finite (``check_batch`` or a ``BasePoint``).

    y = C_I mu, nu = C_c mu + P y, and d^2 = det A |eta|^2 plus each
    stratum's segment sum of y G y; a foot is interior when its nu clears
    -1e-12 (1 + max |nu|).  The closure of a stratum is a convex cone
    inside its hull, so the distance to the closed stratum is the smallest
    hull distance among the supersets with an interior foot: itself and
    the proper ones, whose least is the boundary distance.  C mu is exact,
    and P y and G y are segment sums of the nonzero entries times their
    own rows of C mu, so a point's row is bitwise the same in any batch.
    """
    T = A.derived("strata", lambda: _table(A))
    # points along axis 1, so each segment sum adds whole rows
    Y, n_a, n_c = T.C @ mu.T, T.n_a, T.n_c
    # a trailing +inf keeps the full set, without transverse labels, interior
    Y[n_a + n_c] = np.inf
    y, pad, cut = Y[:n_a], Y[n_a:n_a + n_c + 1], T.comp_cut
    PGy = np.add.reduceat(T.pg[:, None] * Y[n_a + n_c + 1:], T.pg_off)
    pad[:-1] += PGy[:n_c]
    d = np.add.reduceat(y * PGy[n_c:], T.act_cut)
    d += A.det * np.square(np.abs(eta))
    np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    interior = (np.minimum.reduceat(pad, cut)
                > -1e-12 * (1.0 + np.maximum.reduceat(np.abs(pad), cut)))
    reach = np.where(interior, d, np.inf)
    boundary = np.minimum.reduce(reach + T.proper, axis=1)
    return _Pass(T, pad[:-1].T, d.T, np.minimum(reach, boundary).T, boundary.T)


def _locate(A: QuadForm, I: IndexSet, p: BasePoint) -> tuple[_Pass, int]:
    """The pass at p, as a batch of one, and the table row of the stratum I."""
    I.require_stratum(A.n)
    return _pass(A, *_row(A, p)), _layout(A.n).row[I.members]


def _glue_blocks(T: SimpleNamespace, i: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Each nonempty K of row i's transverse labels, by size, and its block
    of A_cc reduced by the other transverse labels, zero-padded: (nK, c, c)."""
    c = len(T.comp[i])
    Ks = [K for k in range(1, c + 1) for K in combinations(T.comp[i], k)]
    # A_cc is the last c rows of the table's M_J
    lab, red = np.arange(T.size[i], T.size[i] + c), np.zeros((len(Ks), c, c))
    for r, K in enumerate(Ks):
        inK = np.isin(T.comp[i], K)   # K's rows of A_cc
        order = [*lab[inK], *lab[~inK]]
        red[r][np.ix_(inK, inK)] = schur_blocks(block(T.M[i], order, order), len(K))[1]
    return Ks, red


def _rho(A: QuadForm, at: _Pass, i: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Separation scales (B, nK) of each K of ``_glue_blocks``, built once
    per form and row: one stacked quadratic form in the pass's nu_K."""
    Ks, red = A.derived(("glue", i), lambda: _glue_blocks(at.table, i))
    nu = at.nu[:, at.table.nu_at[i]]
    rho = _einsum("bk,Kkl,bl->bK", nu, red, nu)
    return Ks, np.sqrt(np.maximum(rho, 0.0, out=rho), out=rho)


def project(A: QuadForm, I: IndexSet, p: BasePoint) -> Projection:
    """Perpendicular foot on the stratum's affine hull and its transverse
    coordinates.

    >>> import numpy as np
    >>> pr = project(QuadForm.identity(3), IndexSet((0, 1)),
    ...              BasePoint(np.array([1.0, 2.0, 3.0]), 0j))
    >>> pr.interior, pr.nu.tolist(), round(pr.dist, 12)
    (True, [2.0, 3.0], 1.0)
    """
    at, j = _locate(A, I, p)
    T = at.table
    nu = at.nu[0, T.nu_at[j]]
    # the foot has nu on the transverse labels and 0 on the active ones
    foot = BasePoint(T.S[j][:, [c - 1 for c in T.comp[j]]] @ nu, 0j)
    return Projection(foot, bool(np.all(nu > 0.0)), nu, float(at.d[0, j]))


def dist_closed_stratum(A: QuadForm, I: IndexSet, p: BasePoint) -> float:
    """Distance to the closed stratum (the stratum plus its boundary)."""
    at, j = _locate(A, I, p)
    return float(at.closed[0, j])


def dist_boundary(A: QuadForm, I: IndexSet, p: BasePoint) -> float:
    """Distance to the union of strictly deeper strata bounding this one.

    Top-dimensional corners (|I| = N + 1) have empty boundary: +inf.
    """
    at, j = _locate(A, I, p)
    return float(at.boundary[0, j])


def dist_locus(A: QuadForm, p: BasePoint) -> float:
    """Distance to the degeneration locus, the union of the strata.

    The closed strata cover that union, so this is the smallest of their
    closed-stratum distances, all read from one pass.
    """
    return float(_pass(A, *_row(A, p)).closed[0].min())


@dataclass
class RegionReport:
    """Which covering regions contain a given point."""

    near: list[IndexSet]         # B_I
    near_core: list[IndexSet]    # B''_I
    generic: bool                # B_a
    far_levels: list[int]        # F_s

    @property
    def covered(self) -> bool:
        return self.generic or bool(self.near)


def region_membership(A: QuadForm, consts: RegionConstants, p: BasePoint) -> RegionReport:
    """Evaluate every covering-region inequality at one point.

    near / near_core compare c0 (resp. 4 chat(A) c0) times the
    closed-stratum distance against the boundary distance; generic
    compares 2 c0^(N-1) times the locus distance against the distance to
    the origin, the hull distance of the full label set; far levels
    require all strata of a given depth to be at least the level
    threshold away.
    """
    T, _, d, closed, bound = _pass(A, *_row(A, p))
    N, c0, closed, bound = A.n, consts.c0, closed[0], bound[0]
    least = np.minimum.reduceat(closed, T.size_cut).tolist()   # per size 2..N + 1
    # compress stops at T.inner's end: the full label set has no B_I
    return RegionReport(
        near=list(compress(T.inner, (c0 * closed < bound).tolist())),
        near_core=list(compress(T.inner, (4.0 * consts.chat(A) * c0 * closed < bound).tolist())),
        generic=2.0 * c0 ** (N - 1) * min(least) > float(d[0, -1]),
        far_levels=[s for s in range(1, N) if least[s] > consts.level(s)])
