"""Linear-algebraic substrate for the base geometry.

Everything downstream is phrased in terms of a fixed symmetric positive
definite matrix acting on the moment coordinates ``mu`` together with a
complex coordinate ``eta``.  This module provides the quadratic-form
wrapper, base points, index-set bookkeeping, block/Schur algebra, the
anisotropic norm, and the constant-coefficient Laplacian of that flat
structure, plus finite-difference fallbacks for derivative access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "QuadForm",
    "BasePoint",
    "IndexSet",
    "ScalarField",
    "anorm",
    "schur_complement",
    "schur_blocks",
    "laplace_A",
    "ball_volume",
    "block",
    "fd_gradient",
    "fd_hessian",
]

# relative step of the finite-difference helpers: cube root of machine epsilon
_FD_REL = np.finfo(float).eps ** (1.0 / 3.0)


def block(M: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Submatrix of ``M`` with the given row and column index lists.

    Index lists use 1-based coordinate labels (the label of ``mu_i`` is ``i``),
    so label ``i`` addresses row ``i-1``.
    """
    r = np.array(rows, dtype=np.intp) - 1
    c = np.array(cols, dtype=np.intp) - 1
    return M[r[:, None], c]


class QuadForm:
    """A symmetric positive definite matrix with cached spectral data.

    Parameters
    ----------
    entries : array_like
        Symmetric real matrix.  Symmetry is enforced to a 1e-14 relative
        tolerance and the matrix must be positive definite
        (``lambda_min > 1e-12 * lambda_max``).
    """

    __slots__ = ("entries", "n", "lambda_min", "lambda_max", "det", "inv", "_derived")

    def __init__(self, entries) -> None:
        M = np.array(entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("quadratic form must be a square matrix")
        scale = max(1.0, float(np.max(np.abs(M))))
        if np.max(np.abs(M - M.T)) > 1e-14 * scale:
            raise ValueError("matrix is not symmetric to 1e-14")
        M = 0.5 * (M + M.T)
        w = np.linalg.eigvalsh(M)
        if w[0] <= 1e-12 * w[-1] or w[0] <= 0.0:
            raise ValueError("matrix is not positive definite")
        M.flags.writeable = False
        self.entries = M
        self.n = M.shape[0]
        self.lambda_min = float(w[0])
        self.lambda_max = float(w[-1])
        self.det = float(np.linalg.det(M))
        inv = np.linalg.inv(M)
        inv = 0.5 * (inv + inv.T)
        inv.flags.writeable = False
        self.inv = inv
        self._derived: dict = {}

    @classmethod
    def identity(cls, n: int) -> "QuadForm":
        return cls(np.eye(n))

    @property
    def condition(self) -> float:
        return self.lambda_max / self.lambda_min

    def derived(self, key, build: Callable[[], object]):
        """Data computed from this read-only form, built on first use and
        kept with it; threads racing on one key at worst build it twice."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def cholesky(self) -> np.ndarray:
        return self.derived("cholesky", lambda: np.linalg.cholesky(self.entries))

    def quad(self, x: np.ndarray) -> np.ndarray:
        """x^T A x, broadcast over the leading axes of ``x``."""
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, self.entries, x)

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuadForm(n={self.n}, cond={self.condition:.3g})"


@dataclass(frozen=True)
class BasePoint:
    """A point (mu, eta) of the base R^N x C."""

    mu: np.ndarray
    eta: complex

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float)
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", complex(self.eta))
        if not (np.all(np.isfinite(mu)) and np.isfinite(self.eta)):
            raise ValueError("base point has non-finite entries")

    @property
    def N(self) -> int:
        return self.mu.shape[0]

    def as_vector(self) -> np.ndarray:
        """Real coordinates (mu_1..mu_N, Re eta, Im eta)."""
        return np.concatenate([self.mu, [self.eta.real, self.eta.imag]])

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "BasePoint":
        v = np.asarray(v, dtype=float)
        return cls(v[:-2], complex(v[-2], v[-1]))


class IndexSet:
    """A subset of {0, ..., N} labelling a stratum of the degeneracy locus.

    ``active`` is the subset of coordinate labels {1, ..., N}; the label 0 is
    carried as a flag and silently dropped by every matrix-level operation.
    """

    __slots__ = ("members", "contains_zero", "active")

    def __init__(self, members: Iterable[int]) -> None:
        ms = tuple(sorted(set(int(m) for m in members)))
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

    def complement(self, N: int) -> tuple[int, ...]:
        """Complement inside {0, ..., N}."""
        return tuple(m for m in range(N + 1) if m not in self.members)

    def active_complement(self, N: int) -> tuple[int, ...]:
        """Complement inside {1, ..., N}."""
        return tuple(m for m in range(1, N + 1) if m not in self.members)

    def issubset(self, other: "IndexSet") -> bool:
        return set(self.members) <= set(other.members)


# -- finite differences -------------------------------------------------

def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient with one Richardson level; for a
    vector-valued ``f``, the Jacobian with one column per coordinate."""
    x = np.asarray(x, dtype=float)
    h = _FD_REL * np.maximum(1.0, np.abs(x))
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        d1 = (f(x + e) - f(x - e)) / (2 * h[i])
        d2 = (f(x + 0.5 * e) - f(x - 0.5 * e)) / h[i]
        cols.append((4 * d2 - d1) / 3.0)
    return np.array(cols, dtype=float).T


def fd_hessian(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian with one Richardson level."""
    x = np.asarray(x, dtype=float)

    def hess_at(step_rel: float) -> np.ndarray:
        h = step_rel * np.maximum(1.0, np.abs(x))
        n = x.size
        H = np.empty((n, n))
        f0 = f(x)
        for i in range(n):
            ei = np.zeros_like(x)
            ei[i] = h[i]
            H[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / (h[i] ** 2)
            for j in range(i + 1, n):
                ej = np.zeros_like(x)
                ej[j] = h[j]
                H[i, j] = H[j, i] = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4 * h[i] * h[j])
        return H

    H1 = hess_at(_FD_REL)
    H2 = hess_at(0.5 * _FD_REL)
    return (4 * H2 - H1) / 3.0


class ScalarField:
    """A scalar function on the base with derivative access.

    value, gradient and hessian act on the real coordinates
    (mu_1..mu_N, Re eta, Im eta).  When analytic derivatives are absent the
    field falls back to central differences.
    """

    def __init__(self, value: Callable[[BasePoint], float],
                 gradient: Callable[[BasePoint], np.ndarray] | None = None,
                 hessian: Callable[[BasePoint], np.ndarray] | None = None) -> None:
        self._value = value
        self._gradient = gradient
        self._hessian = hessian

    def value(self, p: BasePoint) -> float:
        return float(self._value(p))

    def _value_vec(self, v: np.ndarray) -> float:
        return float(self._value(BasePoint.from_vector(v)))

    def gradient(self, p: BasePoint) -> np.ndarray:
        if self._gradient is not None:
            return np.asarray(self._gradient(p), dtype=float)
        return fd_gradient(self._value_vec, p.as_vector())

    def hessian(self, p: BasePoint) -> np.ndarray:
        if self._hessian is not None:
            return np.asarray(self._hessian(p), dtype=float)
        if self._gradient is not None:
            # one differencing level on top of the analytic gradient
            J = fd_gradient(lambda v: np.asarray(
                self._gradient(BasePoint.from_vector(v)), dtype=float),
                p.as_vector())
            return 0.5 * (J + J.T)
        return fd_hessian(self._value_vec, p.as_vector())


# -- operations ----------------------------------------------------------

def anorm(A: QuadForm, p: BasePoint) -> float:
    """Anisotropic norm sqrt(mu^T A mu + det(A) |eta|^2) of a base point.

    >>> anorm(QuadForm.identity(2), BasePoint([3.0, 4.0], 0.0))
    5.0
    """
    if A.n != p.N:
        raise ValueError("dimension mismatch between form and point")
    return math.sqrt(float(A.quad(p.mu)) + A.det * abs(p.eta) ** 2)


def anorm_diff(A: QuadForm, p: BasePoint, q: BasePoint) -> float:
    """Distance between two base points in the flat metric of ``A``."""
    return anorm(A, BasePoint(p.mu - q.mu, p.eta - q.eta))


def schur_blocks(M: np.ndarray, S: Sequence[int], Sc: Sequence[int]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(P, G) for the label lists S and Sc of a symmetric matrix M:
    P = M_{Sc}^{-1} M_{Sc S} and the Schur block G = M_S - M_{S Sc} P."""
    M_SSc = block(M, S, Sc)   # empty when Sc is
    P = np.linalg.solve(block(M, Sc, Sc), M_SSc.T)
    return P, block(M, S, S) - M_SSc @ P


def schur_complement(A: QuadForm, I: IndexSet) -> QuadForm:
    """Effective transverse form of ``A`` for the index set ``I``.

    The label 0 is dropped; with ``S`` the active labels of ``I`` and ``S'``
    the remaining labels, returns A_S - A_{SS'} A_{S'}^{-1} A_{S'S}.
    All eigenvalues lie in [lambda (lambda/Lambda)^(N-1), Lambda].  Built
    once per form and active label set.
    """
    S = I.active
    if not S:
        raise ValueError("index set has no active labels")
    if max(S) > A.n:
        raise ValueError("index label exceeds the form's dimension")

    if len(S) == A.n:
        return A   # nothing to eliminate
    Sc = [j for j in range(1, A.n + 1) if j not in S]
    return A.derived(("schur", S), lambda: QuadForm(schur_blocks(A.entries, S, Sc)[1]))


def laplace_A(A: QuadForm, u: ScalarField, p: BasePoint) -> float:
    """Constant-coefficient Laplacian of the flat base structure.

    A^{-1}_{ij} u_{mu_i mu_j} + (det A)^{-1} (u_xx + u_yy) where (x, y) are
    the real coordinates of eta.  The eta part is one quarter of the usual
    complex-normal convention absorbed into the flat (x, y) Laplacian.
    """
    if A.n != p.N:
        raise ValueError("dimension mismatch between form and point")
    H = u.hessian(p)
    N = A.n
    mu_part = float(np.sum(A.inv * H[:N, :N]))
    eta_part = (H[N, N] + H[N + 1, N + 1]) / A.det
    return mu_part + eta_part


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
