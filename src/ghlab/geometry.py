"""Linear-algebraic substrate for the base geometry.

Everything downstream is phrased in terms of a fixed symmetric positive
definite matrix acting on the moment coordinates ``mu`` together with a
complex coordinate ``eta``.  This module provides the quadratic-form
wrapper, base points, index-set bookkeeping, block/Schur algebra with a
stratum subset's reduction to a lower-N form, the anisotropic norm, and
the terms of the constant-coefficient Laplacian of that flat structure.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "QuadForm",
    "BasePoint",
    "batch_from_vectors",
    "check_batch",
    "IndexSet",
    "anorm",
    "schur_complement",
    "schur_blocks",
    "Reduction",
    "reduction",
    "laplace_terms",
    "ball_volume",
    "block",
]


def block(M: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Submatrix of ``M`` with the given row and column index lists, taken
    from every matrix of a stack (..., n, n).

    Index lists use 1-based coordinate labels (the label of ``mu_i`` is ``i``),
    so label ``i`` addresses row ``i-1``.  The result is C-contiguous, so
    BLAS rounds products of a stack's blocks as it rounds one matrix's.
    """
    return (np.take(M, np.asarray(rows, dtype=np.intp) - 1, axis=-2)
            .take(np.asarray(cols, dtype=np.intp) - 1, axis=-1))


class QuadForm:
    """A symmetric positive definite matrix with cached spectral data.

    Parameters
    ----------
    entries : array_like
        Finite symmetric real matrix.  Symmetry is enforced to a 1e-14
        relative tolerance and the matrix must be positive definite
        (``lambda_min > 1e-12 * lambda_max``).
    """

    __slots__ = ("entries", "n", "lambda_min", "lambda_max", "det", "_inv", "_derived")

    def __init__(self, entries) -> None:
        M = np.array(entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("quadratic form must be a square matrix")
        if not M.size:
            raise ValueError("quadratic form is empty")
        scale = float(np.abs(M).max())   # nan or inf if any entry is
        if not math.isfinite(scale):
            raise ValueError("quadratic form has non-finite entries")
        if np.abs(M - M.T).max() > 1e-14 * max(1.0, scale):
            raise ValueError("matrix is not symmetric to 1e-14")
        M = 0.5 * (M + M.T)
        w = np.linalg.eigvalsh(M)
        if w[0] <= 1e-12 * w[-1] or w[0] <= 0.0:
            raise ValueError("matrix is not positive definite")
        M.setflags(write=False)
        self.entries = M
        self.n = M.shape[0]
        self.lambda_min = float(w[0])
        self.lambda_max = float(w[-1])
        self.det = float(np.linalg.det(M))
        self._inv: np.ndarray | None = None
        self._derived: dict = {}

    @classmethod
    def identity(cls, n: int) -> "QuadForm":
        return cls(np.eye(n))

    @property
    def inv(self) -> np.ndarray:
        """A^{-1}, symmetrized, computed on first read (the stratum layer never does)."""
        if self._inv is None:
            inv = np.linalg.inv(self.entries)
            self._inv = 0.5 * (inv + inv.T)
            self._inv.flags.writeable = False
        return self._inv

    @property
    def condition(self) -> float:
        return self.lambda_max / self.lambda_min

    def derived(self, key, build: Callable[[], object]):
        """Data computed from this read-only form, built on first use and
        kept with it.  The library runs on one thread; should a caller's
        threads race on one key, each builds the same data and one is kept."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def quad(self, x: np.ndarray) -> np.ndarray:
        """x^T A x, broadcast over the leading axes of ``x``."""
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, self.entries, x)

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuadForm(n={self.n}, cond={self.condition:.3g})"


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite.  A sum of squares is finite
    only if every entry is; one that overflows on finite entries falls
    through to the exact test.  ``np.vdot`` sums without the overflow
    warning that ``@`` and ``np.dot`` raise."""
    return cmath.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


@dataclass(frozen=True, init=False, eq=False, slots=True)
class BasePoint:
    """A point (mu, eta) of the base R^N x C, ``mu`` a read-only copy.

    Slotted, so a point holds no ``__dict__``.  A copy or an unpickled
    point is built by ``__init__`` again, so it is checked and its ``mu``
    is read-only too.  Points are equal when their mu and eta are, and
    hash by mu's floats and eta, so that 0.0 and -0.0 hash alike."""

    mu: np.ndarray
    eta: complex

    def __init__(self, mu, eta) -> None:
        mu = np.array(mu, dtype=float)
        if mu.ndim != 1 or not mu.size:
            raise ValueError(f"base point mu is not a non-empty 1-D array: shape {mu.shape}")
        mu.setflags(write=False)
        eta = complex(eta)
        if not (_finite(mu) and cmath.isfinite(eta)):
            raise ValueError("base point has non-finite entries")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", eta)

    def __reduce__(self):
        return BasePoint, (self.mu, self.eta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasePoint):
            return NotImplemented
        return self.eta == other.eta and np.array_equal(self.mu, other.mu)

    def __hash__(self) -> int:
        return hash((tuple(self.mu.tolist()), self.eta))

    @property
    def N(self) -> int:
        return self.mu.shape[0]

    def as_vector(self) -> np.ndarray:
        """Real coordinates (mu_1..mu_N, Re eta, Im eta)."""
        return np.concatenate([self.mu, [self.eta.real, self.eta.imag]])


def _row(A: QuadForm, p: BasePoint) -> tuple[np.ndarray, np.ndarray]:
    """p as a batch of one for the form A: a ``BasePoint`` is finite, so
    only its shape is checked."""
    if p.mu.shape != (A.n,):
        raise ValueError("dimension mismatch between form and point")
    return p.mu[None], np.array([p.eta])


def batch_from_vectors(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch (mu (B, N), eta (B,)) of real coordinate rows (B, N + 2).

    >>> batch_from_vectors(np.array([[1.0, 2.0, 3.0, -4.0]]))
    (array([[1., 2.]]), array([3.-4.j]))
    """
    rows = np.asarray(rows, dtype=float)
    return rows[:, :-2], np.ascontiguousarray(rows[:, -2:]).view(complex)[:, 0]


def check_batch(mu: np.ndarray, eta: np.ndarray, N: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """mu and eta as a float (B, N) and a complex (B,) array of finite
    rows, or ValueError naming the first row that is not."""
    mu = np.asarray(mu, dtype=float)
    eta = np.asarray(eta, dtype=complex)
    if mu.ndim != 2 or mu.shape[1] != N or eta.shape != mu.shape[:1]:
        raise ValueError(f"a batch is mu (B, {N}) and eta (B,), "
                         f"not {mu.shape} and {eta.shape}")
    if not (_finite(mu) and _finite(eta)):
        finite = np.isfinite(mu).all(axis=1) & np.isfinite(eta)
        raise ValueError(f"batch row {int(np.argmin(finite))} has non-finite entries")
    return mu, eta


class IndexSet:
    """A subset of {0, ..., N} labelling a stratum of the degeneracy locus.

    ``active`` is the subset of coordinate labels {1, ..., N}; the label 0 is
    carried as a flag and silently dropped by every matrix-level operation.
    """

    __slots__ = ("members", "contains_zero", "active")

    def __init__(self, members: Iterable[int]) -> None:
        ms = tuple(sorted(set(map(operator.index, members))))
        if any(m < 0 for m in ms):
            raise ValueError("index labels must be non-negative")
        self.members = ms
        self.contains_zero = 0 in ms
        self.active = tuple(m for m in ms if m >= 1)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, m: int) -> bool:
        return m in self.members

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:  # pragma: no cover
        return f"IndexSet({list(self.members)})"

    def require_stratum(self, N: int) -> None:
        """Validate this set as a stratum label over {0, ..., N}."""
        if len(self.members) < 2:
            raise ValueError("stratum label needs at least two indices")
        if self.members[-1] > N:
            raise ValueError("index label exceeds the coordinate count")

    def active_complement(self, N: int) -> tuple[int, ...]:
        """Complement inside {1, ..., N}."""
        return tuple(m for m in range(1, N + 1) if m not in self.members)


# -- operations ----------------------------------------------------------

def anorm(A: QuadForm, p: BasePoint) -> float:
    """Anisotropic norm sqrt(mu^T A mu + det(A) |eta|^2) of a base point.

    >>> anorm(QuadForm.identity(2), BasePoint([3.0, 4.0], 0.0))
    5.0
    """
    if A.n != p.N:
        raise ValueError("dimension mismatch between form and point")
    return math.sqrt(float(A.quad(p.mu)) + A.det * abs(p.eta) ** 2)


def schur_blocks(M: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, G) of a symmetric matrix M, or of each matrix of a stack
    (..., n, n), ordered active-first and split at its active count a:
    P = M_cc^{-1} M_ca, G = M_aa - M_ac P, M_ac C-contiguous (see ``block``)."""
    M_ac = np.ascontiguousarray(M[..., :a, a:])   # empty when c is
    P = np.linalg.solve(M[..., a:, a:], M_ac.swapaxes(-1, -2))
    return P, M[..., :a, :a] - M_ac @ P


def schur_complement(A: QuadForm, I: IndexSet) -> QuadForm:
    """A_S - A_{SS'} A_{S'}^{-1} A_{S'S}, S the active labels of I and S'
    the rest, the G of I's ``reduction``.  Its inverse is the S block of
    A^{-1}, so by Cauchy interlacing its eigenvalues lie in [lambda,
    Lambda], A's extreme eigenvalues."""
    return reduction(A, I).G


class Reduction(NamedTuple):
    """A stratum subset I as a lower-N form: G = ``schur_complement(A, I)``
    on I's active slots ``slots`` (N' of them), and s = sqrt(det A / det G),
    sqrt(det A_cc) of A's block off I.  I's model on A at (mu, eta) is G's
    at ``batch(mu, eta)`` = (mu_I, s eta): its kernels, s times its
    gammas, and its field, whose eta derivatives carry a factor s."""

    G: QuadForm
    s: float
    slots: np.ndarray

    def batch(self, mu: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G's batch (mu_I (B, N'), s eta (B,)) of the batch mu (B, N), eta (B,)."""
        return mu.take(self.slots, axis=1), self.s * eta


@lru_cache(maxsize=None)
def _slots(S: tuple[int, ...]) -> np.ndarray:
    """The columns of mu of the active labels S, read-only."""
    slots = np.array(S) - 1
    slots.flags.writeable = False
    return slots


def reduction(A: QuadForm, I: IndexSet) -> Reduction:
    """I's ``Reduction`` of A, built once per form and active label set;
    with every label active it is A itself, s = 1, and nothing is kept."""
    S = I.active
    if not S:
        raise ValueError("index set has no active labels")
    if max(S) > A.n:
        raise ValueError("index label exceeds the form's dimension")
    if len(S) == A.n:
        return Reduction(A, 1.0, _slots(S))

    def build() -> Reduction:
        order = S + tuple(j for j in range(1, A.n + 1) if j not in S)
        G = QuadForm(schur_blocks(block(A.entries, order, order), len(S))[1])
        return Reduction(G, math.sqrt(A.det / G.det), _slots(S))

    return A.derived(("reduction", S), build)


def laplace_terms(A: QuadForm, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms of the constant-coefficient Laplacian of the flat base
    structure, A^{-1}_ij u_{mu_i mu_j} + (u_xx + u_yy) / det A with (x, y)
    the real coordinates of eta, from Hessians H (..., N + 2, N + 2): the
    mu terms A^{-1}_ij H_ij (..., N * N), one contiguous row per Hessian,
    and the eta part (H_xx + H_yy) / det A."""
    N = A.n
    return ((A.inv * H[..., :N, :N]).reshape(H.shape[:-2] + (N * N,)),
            (H[..., N, N] + H[..., N + 1, N + 1]) / A.det)


def ball_volume(k: int) -> float:
    """Volume of the unit ball in R^k.

    >>> import math
    >>> abs(ball_volume(2) - math.pi) < 1e-15
    True
    """
    if int(k) != k or k <= 0:
        raise ValueError("dimension must be a positive integer")
    k = int(k)
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)
