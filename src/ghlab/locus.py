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

Only the point changes between queries.  Each subset's swap S_J, labels
and supersets depend on N alone and are laid out once per N; each form
keeps one stratum table, built on first use in one batched pass per
subset size, with the solves P_J = A_cc^{-1} A_cI and Schur blocks G_J.
A query makes one pass over the table per point for every stratum's foot
coordinates and hull distance, which the distances, projections and
region tests all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .geometry import BasePoint, IndexSet, QuadForm, anorm, schur_blocks
from .geometry import schur_complement  # noqa: F401  perfbench/tracing.py patches it here

__all__ = [
    "Projection",
    "RegionConstants",
    "RegionReport",
    "zero_swap",
    "project",
    "dist_closed_stratum",
    "dist_boundary",
    "dist_locus",
    "region_membership",
    "rho_IJ",
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
    separation threshold of depth s, and ``cprime()`` = 4 c0^2 the collar
    margin of the gluing cutoff.
    """

    c0: float = 32.0

    def __post_init__(self) -> None:
        if self.c0 <= 1.0:
            raise ValueError("c0 must exceed 1")

    def chat(self, A: QuadForm) -> float:
        return 1.0 + A.condition ** (0.5 * (A.n + 2))

    def level(self, s: int) -> float:
        return 64.0 * 16.0 ** (s - 1)

    def cprime(self) -> float:
        return 4.0 * self.c0 ** 2


def all_strata(N: int, min_size: int = 2, max_size: int | None = None) -> list[IndexSet]:
    """Every stratum index subset of {0..N} within the given size range."""
    hi = N + 1 if max_size is None else max_size
    return [IndexSet(members) for k in range(min_size, hi + 1)
            for members in combinations(range(N + 1), k)]


def _swap_labels(N: int, I: IndexSet) -> tuple[IndexSet, np.ndarray]:
    """(I', S) for the swap of label 0 with I's smallest member."""
    S = np.eye(N)
    if I.contains_zero:
        return I, S
    S[:, I.members[0] - 1] = -1.0
    return IndexSet((0,) + I.members[1:]), S


def zero_swap(A: QuadForm, I: IndexSet, p: BasePoint
              ) -> tuple[QuadForm, IndexSet, BasePoint, np.ndarray]:
    """Normalize so the subset contains label 0.

    Returns (A', I', p', S) where S is the involutive matrix with
    mu' = S mu, A' = S^T A S and I' containing 0.  Distances to strata and
    det A are preserved; S is the identity when 0 is already a member.
    """
    I.require_stratum(A.n)
    if p.N != A.n:
        raise ValueError("point dimension does not match the form")
    I2, S = _swap_labels(A.n, I)
    A2 = A if I2 is I else QuadForm(S.T @ A.entries @ S)
    return A2, I2, BasePoint(S @ p.mu, p.eta), S


@lru_cache(maxsize=None)
def _layout(N: int) -> SimpleNamespace:
    """The rows of every stratum table on N coordinates; no form changes them.

    Row j is the subset strata[j], with swap S[j] (S is (R, N, N)) and, in
    the swapped frame, transverse labels comp[j].  Indexing a raveled
    stack (R, N, N) with gather reorders each row's labels as its active
    ones, then its transverse ones, so all rows of one subset size share
    one block layout.  CI and Cc stack the rows' selections of S mu on the
    active and transverse labels; groups lists each subset size's adjacent
    (rows, CI slice, Cc slice).  above[k, j] says that strata[j] contains
    strata[k]; proper excludes equality.
    """
    L = SimpleNamespace(strata=all_strata(N, 2))
    L.row = {J.members: j for j, J in enumerate(L.strata)}
    L.size = np.array([len(J) for J in L.strata])
    frames = [_swap_labels(N, J) for J in L.strata]
    L.comp = [J2.active_complement(N) for J2, _ in frames]
    L.S = np.stack([S for _, S in frames])
    order = np.array([[m - 1 for m in J2.active + comp]
                      for (J2, _), comp in zip(frames, L.comp)], dtype=np.intp)
    flat = N * np.arange(len(L.strata))[:, None] + order   # rows of the raveled stack
    L.gather = N * flat[:, :, None] + order[:, None, :]
    S_rows = L.S.reshape(-1, N)[flat]
    active = np.arange(N) < L.size[:, None] - 1
    L.CI, L.Cc = S_rows[active], S_rows[~active]
    r_off = np.searchsorted(L.size, np.arange(2, N + 3))
    a_off = np.concatenate([[0], np.cumsum(L.size - 1)])
    L.comp_off = np.concatenate([[0], np.cumsum(N + 1 - L.size)])
    L.groups = [(slice(r0, r1), slice(a_off[r0], a_off[r1]),
                 slice(L.comp_off[r0], L.comp_off[r1])) for r0, r1 in zip(r_off, r_off[1:])]
    bits = np.array([sum(1 << m for m in J) for J in L.strata])
    L.above = (bits[:, None] & bits[None, :]) == bits[:, None]
    L.proper = L.above & ~np.eye(len(bits), dtype=bool)
    return L


def _table(A: QuadForm) -> SimpleNamespace:
    """A's stratum table: the layout of its N, plus per row the transverse
    block A_cc and per subset size the stacked solves P = A_cc^{-1} A_cI
    and Schur blocks G, symmetrized as QuadForm would.

    Every M_J = S_J^T A S_J comes from one stacked matmul; gathered into
    order, each subset size's rows make one ``schur_blocks`` call.
    """
    T = SimpleNamespace(**vars(_layout(A.n)))
    M = T.S.swapaxes(-1, -2) @ A.entries @ T.S
    M = (0.5 * (M + M.swapaxes(-1, -2))).reshape(-1)[T.gather]
    labels = np.arange(1, A.n + 1)
    T.P, T.G, T.A_cc = [], [], []
    for rows, _, _ in T.groups:
        n_act = T.size[rows.start] - 1
        P, G = schur_blocks(M[rows], labels[:n_act], labels[n_act:])
        T.P.append(P)
        T.G.append(0.5 * (G + G.swapaxes(-1, -2)))
        T.A_cc.extend(M[rows, n_act:, n_act:])
    return T


class _Pass(NamedTuple):
    """A point's pass over a stratum table: each row's transverse
    coordinates nu (row j at comp_off[j]:comp_off[j + 1]), hull distance d
    and least d over its interior supersets (closed) and proper ones."""

    table: SimpleNamespace
    nu: np.ndarray
    d: np.ndarray
    closed: np.ndarray
    boundary: np.ndarray


def _pass(A: QuadForm, p: BasePoint) -> _Pass:
    """Hull data of every stratum at p, from the form's table.

    nu_J = (S_J mu)_c + P_J (S_J mu)_I and d_J^2 = (S_J mu)_I^T G_J
    (S_J mu)_I + det A |eta|^2; a foot is interior when its nu clears
    -1e-12 (1 + max |nu|).  The closure of a stratum is a convex cone
    inside its hull, so the distance to the closed stratum is the smallest
    hull distance among the supersets with an interior foot.
    """
    if p.N != A.n:
        raise ValueError("point dimension does not match the form")
    T = A.derived("strata", lambda: _table(A))
    yI, nu, quad = T.CI @ p.mu, T.Cc @ p.mu, []
    for (_, a, c), P, G in zip(T.groups, T.P, T.G):
        y = yI[a].reshape(len(G), -1, 1)
        nu[c] += (P @ y).ravel()
        # batched, each row rounds as (S mu)_I @ G @ (S mu)_I alone would
        quad.append((y.transpose(0, 2, 1) @ G @ y)[:, 0, 0])
    d = np.sqrt(np.maximum(np.concatenate(quad) + A.det * abs(p.eta) ** 2, 0.0))
    # a trailing +inf keeps the full set, without transverse labels, interior
    pad, cut = np.append(nu, np.inf), T.comp_off[:-1]
    interior = (np.minimum.reduceat(pad, cut)
                > -1e-12 * (1.0 + np.maximum.reduceat(np.abs(pad), cut)))
    reach = np.where(interior, d, np.inf)
    return _Pass(T, nu, d, np.where(T.above, reach, np.inf).min(axis=1),
                 np.where(T.proper, reach, np.inf).min(axis=1))


def _locate(A: QuadForm, I: IndexSet, p: BasePoint) -> tuple[_Pass, int]:
    """The pass at p and the table row of the stratum I."""
    I.require_stratum(A.n)
    at = _pass(A, p)
    return at, at.table.row[I.members]


def _rho(at: _Pass, i: int, K: tuple[int, ...]) -> float:
    """Separation scale of the transverse labels K of row i at the pass's
    foot coordinates: the K block of the transverse form, reduced by the
    other transverse directions, on nu_K."""
    T = at.table
    pos = [T.comp[i].index(m) + 1 for m in K]   # labels of the A_cc rows
    rest = [k for k in range(1, len(T.comp[i]) + 1) if k not in pos]
    nu_K = at.nu[T.comp_off[i]:T.comp_off[i + 1]][[k - 1 for k in pos]]
    red = schur_blocks(T.A_cc[i], pos, rest)[1]
    return float(np.sqrt(max(nu_K @ red @ nu_K, 0.0)))


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
    nu = at.nu[T.comp_off[j]:T.comp_off[j + 1]]
    # the foot has nu on the transverse labels and 0 on the active ones
    foot = BasePoint(T.S[j][:, [c - 1 for c in T.comp[j]]] @ nu, 0j)
    interior = bool(np.all(nu > 0.0))
    return Projection(foot, interior, nu, float(at.d[j]))


def dist_closed_stratum(A: QuadForm, I: IndexSet, p: BasePoint) -> float:
    """Distance to the closed stratum (the stratum plus its boundary)."""
    at, j = _locate(A, I, p)
    return float(at.closed[j])


def dist_boundary(A: QuadForm, I: IndexSet, p: BasePoint) -> float:
    """Distance to the union of strictly deeper strata bounding this one.

    Top-dimensional corners (|I| = N + 1) have empty boundary: +inf.
    """
    at, j = _locate(A, I, p)
    return float(at.boundary[j])


def dist_locus(A: QuadForm, p: BasePoint, min_size: int = 2) -> float:
    """Distance to the union of the strata with at least ``min_size``
    labels; the default 2 gives the whole degeneration locus.

    The closed strata cover that union, so this is the smallest of their
    closed-stratum distances, all read from one pass.
    """
    at = _pass(A, p)
    return float(at.closed[at.table.size >= min_size].min())


def rho_IJ(A: QuadForm, I: IndexSet, J: IndexSet, p: BasePoint) -> float:
    """Separation scale between a stratum and a deeper one through the foot.

    Requires I a proper subset of J.  Computed from the transverse
    coordinates of the foot on I's hull: the K = J \\ I block of the
    complement form, reduced by the remaining transverse directions,
    evaluated on those coordinates.  Comparable to the foot's distance to
    the deeper stratum within explicit constants.
    """
    if not (I.issubset(J) and len(I) < len(J)):
        raise ValueError("need I strictly contained in J")
    J.require_stratum(A.n)
    at, i = _locate(A, I, p)
    # J's labels in I's frame, where label 0 and I's smallest member trade
    swap = {} if I.contains_zero else {0: I.members[0], I.members[0]: 0}
    K = tuple(m for m in (swap.get(j, j) for j in J) if m in at.table.comp[i])
    return _rho(at, i, K)


@dataclass
class RegionReport:
    """Which covering regions contain a given point."""

    near: list[IndexSet] = field(default_factory=list)        # B_I
    near_core: list[IndexSet] = field(default_factory=list)   # B''_I
    generic: bool = False                                     # B_a
    far_levels: list[int] = field(default_factory=list)       # F_s
    distances: dict[IndexSet, float] = field(default_factory=dict)

    def tags(self) -> set[str]:
        out = {f"near:{list(I.members)}" for I in self.near}
        out |= {f"core:{list(I.members)}" for I in self.near_core}
        if self.generic:
            out.add("generic")
        out |= {f"far:{s}" for s in self.far_levels}
        return out

    @property
    def covered(self) -> bool:
        return self.generic or bool(self.near)


def region_membership(A: QuadForm, consts: RegionConstants, p: BasePoint) -> RegionReport:
    """Evaluate every covering-region inequality at one point.

    near / near_core compare c0 (resp. 4 chat(A) c0) times the
    closed-stratum distance against the boundary distance; generic
    compares 2 c0^(N-1) times the locus distance against the distance to
    the origin; far levels require all strata of a given depth to be at
    least the level threshold away.  ``distances`` holds every proper
    stratum's closed-stratum distance.
    """
    N = A.n
    rep = RegionReport()
    T, _, _, closed, bound = _pass(A, p)
    inner = T.size <= N
    rep.near, rep.near_core = (
        [T.strata[j] for j in np.flatnonzero(inner & (c * consts.c0 * closed < bound))]
        for c in (1.0, 4.0 * consts.chat(A)))
    rep.distances = {T.strata[j]: float(closed[j]) for j in np.flatnonzero(inner)}
    rep.generic = 2.0 * consts.c0 ** (N - 1) * float(closed.min()) > anorm(A, p)
    rep.far_levels = [s for s in range(1, N)
                      if np.all(closed[T.size == s + 2] > consts.level(s))]
    return rep
