"""Dense exact linear algebra over a prime field F_p.

Scalars are plain integer residues in ``[0, p)``; matrices wrap a read-only
``numpy`` int64 array.  Row reduction uses the leftmost-pivot rule so every
result is reproducible across runs and platforms.  All operations are pure
and all values are immutable after construction, so they can be shared
freely between threads.
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


def solve(a: Matrix, b) -> np.ndarray | None:
    """Some solution x of ``a x = b``, or None if the system is inconsistent.

    Free variables are set to zero, so the returned solution is canonical.
    """
    b = np.asarray(b, dtype=np.int64) % a.p
    if b.shape != (a.rows,):
        raise ValueError(f"right-hand side length {b.shape} incompatible with {a.shape}")
    aug = np.hstack([a.a, b.reshape(-1, 1)])
    red, pivots = _rref_array(aug, a.p)
    if pivots and pivots[-1] == a.cols:
        return None
    x = np.zeros(a.cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, a.cols]
    x.setflags(write=False)
    return x


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


def row_space_echelon(m: Matrix):
    """Echelon data of the row space: (reduced nonzero rows, pivot columns).

    Used to reduce vectors modulo a subspace: with ``(e, piv)`` the result,
    ``w − e.T @ w[piv]`` zeroes the pivot coordinates of ``w`` and is 0 iff
    ``w`` lies in the row space.
    """
    a, pivots = _rref_array(m.a.copy(), m.p)
    return a[: len(pivots)], np.asarray(pivots, dtype=np.intp)


def reduce_mod_rows(w: np.ndarray, ech_rows: np.ndarray, piv: np.ndarray, p: int) -> np.ndarray:
    """Reduce vector(s) modulo the span of reduced echelon rows."""
    if ech_rows.shape[0] == 0:
        return w % p
    return (w - ech_rows.T @ w[piv]) % p
