"""Dense exact linear algebra over a prime field F_p.

Scalars are plain integer residues in ``[0, p)``; matrices wrap a read-only
``numpy`` int64 array.  Row reduction uses the leftmost-pivot rule so every
result is reproducible across runs and platforms.  Every function is pure
and every `Matrix` is immutable after construction, so they can be shared
freely between threads.  The one mutable object is `Echelon`, the basis of
a growing span: reduce a vector modulo the span, or insert it.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .errors import NonPrimeModulus

# Fields are capped at 16-bit primes: residues stay below 2**16, so every
# product and every int64 dot product of up to 2**31 terms is exact.
MAX_MODULUS = 1 << 16


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_modulus(p) -> int:
    """Return ``p`` as an int, raising NonPrimeModulus unless it is a prime
    below ``MAX_MODULUS``."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise NonPrimeModulus(f"field modulus must be an integer, got {p!r}")
    p = int(p)
    if p >= MAX_MODULUS:
        raise NonPrimeModulus(f"field modulus must be below 2**16 = {MAX_MODULUS}, got {p}")
    if not is_prime(p):
        raise NonPrimeModulus(f"field modulus must be prime, got {p}")
    return p


def inverse_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue, via Fermat."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    return pow(a, p - 2, p)


class Matrix:
    """Immutable dense matrix over F_p."""

    __slots__ = ("p", "a")

    def __init__(self, p, data):
        self.p = check_modulus(p)
        a = np.array(data, dtype=np.int64)
        if a.ndim == 1 and a.size == 0:
            a = a.reshape(0, 0)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {a.shape}")
        np.mod(a, self.p, out=a)
        a.setflags(write=False)
        self.a = a

    @classmethod
    def zeros(cls, p, rows, cols):
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p, n):
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    @property
    def is_zero(self) -> bool:
        return not self.a.any()

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p:
            raise ValueError("field moduli differ")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        return Matrix(self.p, (self.a @ other.a) % self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and bool((self.a == other.a).all())

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Matrix(p={self.p}, {self.a.tolist()!r})"

    def apply(self, vector) -> np.ndarray:
        """Matrix-vector product; returns a fresh 1-D residue array."""
        v = np.asarray(vector, dtype=np.int64)
        if v.shape != (self.cols,):
            raise ValueError(f"vector length {v.shape} incompatible with {self.shape}")
        return (self.a @ v) % self.p

    def take(self, row_idx=None, col_idx=None) -> "Matrix":
        """Submatrix with the given row/column index sequences (None = all)."""
        a = self.a
        if row_idx is not None:
            a = a[np.asarray(row_idx, dtype=np.intp), :]
        if col_idx is not None:
            a = a[:, np.asarray(col_idx, dtype=np.intp)]
        return Matrix(self.p, a)

    @staticmethod
    def hstack(mats) -> "Matrix":
        mats = list(mats)
        if not mats:
            raise ValueError("hstack of no matrices")
        p = mats[0].p
        return Matrix(p, np.hstack([m.a for m in mats]))


Rref = namedtuple("Rref", ["reduced", "pivots", "rank"])


def _rref_array(a: np.ndarray, p: int):
    """In-place reduced row echelon form of an int64 array; returns pivots."""
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        below = np.nonzero(a[r:, c])[0]
        if below.size == 0:
            continue
        i = r + int(below[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = inverse_mod(int(a[r, c]), p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rref(m: Matrix) -> Rref:
    """Reduced row echelon form over F_p.

    Returns:
        Rref(reduced, pivots, rank): the unique RREF of ``m``, the tuple of
        pivot column indices (leftmost-pivot rule), and the rank.
    """
    a, pivots = _rref_array(m.a.copy(), m.p)
    return Rref(Matrix(m.p, a), tuple(pivots), len(pivots))


def rank(m: Matrix) -> int:
    _, pivots = _rref_array(m.a.copy(), m.p)
    return len(pivots)


def kernel_basis(m: Matrix) -> list:
    """Basis of the right kernel {v : m v = 0}.

    Returns:
        A list of ``m.cols − rank(m)`` read-only 1-D vectors, one per
        non-pivot column in ascending column order.
    """
    a, pivots = _rref_array(m.a.copy(), m.p)
    n = m.cols
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = np.zeros(n, dtype=np.int64)
        v[j] = 1
        for r, c in enumerate(pivots):
            if c > j:
                break
            v[c] = (-a[r, j]) % m.p
        v.setflags(write=False)
        basis.append(v)
    return basis


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """Some X with ``a X = b`` (columnwise solve), or None if inconsistent."""
    if a.p != b.p or a.rows != b.rows:
        raise ValueError("incompatible systems")
    aug = np.hstack([a.a, b.a])
    red, pivots = _rref_array(aug, a.p)
    if pivots and pivots[-1] >= a.cols:
        return None
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, a.cols:]
    return Matrix(a.p, x)


class Echelon:
    """Reduced row echelon basis of a growing subspace of F_p^n.

    ``rows`` holds the reduced nonzero rows, one per pivot, and ``pivots``
    their pivot columns in ascending order, so ``rows`` is always the RREF
    of the span.  The initial rows are reduced in one `_rref_array` pass;
    `add` then inserts one vector at a time, the reduce-then-insert step of
    incremental column reduction (Lesnick–Wright, arXiv:1902.05708).
    Unlike `Matrix`, an echelon changes in place.
    """

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p, n: int, rows=None):
        self.p = check_modulus(p)
        a = np.zeros((0, n), dtype=np.int64) if rows is None else np.mod(np.asarray(rows, dtype=np.int64), self.p)
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(f"echelon rows must have shape (k, {n}), got {a.shape}")
        a, pivots = _rref_array(a, self.p)
        self.rows = a[: len(pivots)]
        self.pivots = np.asarray(pivots, dtype=np.intp)

    def reduce(self, w) -> np.ndarray:
        """``w`` modulo the span: zero on every pivot, and 0 iff w lies in
        the span.  A 2-D ``w`` is reduced column by column."""
        w = np.asarray(w, dtype=np.int64)
        return (w - self.rows.T @ w[self.pivots]) % self.p

    def add(self, w) -> bool:
        """Insert ``w`` into the span; False (and no change) when it is
        already there."""
        r = self.reduce(w)
        nonzero = np.flatnonzero(r)
        if nonzero.size == 0:
            return False
        c = int(nonzero[0])
        r = (r * inverse_mod(int(r[c]), self.p)) % self.p
        rows = (self.rows - self.rows[:, c, None] * r) % self.p
        at = int(np.searchsorted(self.pivots, c))
        self.rows = np.concatenate((rows[:at], r[None], rows[at:]))
        self.pivots = np.concatenate((self.pivots[:at], [c], self.pivots[at:]))
        return True
