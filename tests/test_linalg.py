import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipers.errors import NonPrimeModulus
from bipers.linalg import Echelon, Matrix, kernel_basis, rank, rref, solve_matrix


def all_vectors(p, n):
    """Brute-force enumeration of F_p^n, used as the independent oracle."""
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=n)]


def matrices(max_dim=4, primes=(2, 3, 5)):
    def build(p, r, c, flat):
        return Matrix(p, np.array(flat[: r * c], dtype=np.int64).reshape(r, c))

    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.sampled_from(primes).flatmap(
                lambda p: st.lists(
                    st.integers(0, p - 1), min_size=r * c, max_size=r * c
                ).map(lambda flat: build(p, r, c, flat))
            )
        )
    )


def test_modulus_must_be_prime():
    with pytest.raises(NonPrimeModulus):
        Matrix(4, [[1]])
    with pytest.raises(NonPrimeModulus):
        Matrix(1, [[0]])
    Matrix(65521, [[65520]])  # largest 16-bit prime is fine
    for prime in (65537, 4294967311):  # primes beyond the 16-bit cap
        with pytest.raises(NonPrimeModulus, match="2\\*\\*16"):
            Matrix(prime, [[1]])


def test_rref_identity():
    m = Matrix.identity(2, 2)
    red, pivots, rk = rref(m)
    assert red == m
    assert pivots == (0, 1)
    assert rk == 2


def test_rref_zero():
    m = Matrix.zeros(2, 3, 4)
    red, pivots, rk = rref(m)
    assert red == m
    assert pivots == ()
    assert rk == 0


def test_rref_rank_one():
    # Hand row-reduction: subtract row 0 from row 1.
    m = Matrix(2, [[1, 1], [1, 1]])
    red, pivots, rk = rref(m)
    assert red == Matrix(2, [[1, 1], [0, 0]])
    assert pivots == (0,)
    assert rk == 1


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(2, 3)) == []


def test_kernel_zero_matrix_full():
    basis = kernel_basis(Matrix.zeros(2, 2, 3))
    assert len(basis) == 3
    assert [v.tolist() for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_single_row():
    # Oracle: of the four vectors of F_2^2, exactly (0,0) and (1,1) die.
    m = Matrix(2, [[1, 1]])
    dead = [v for v in all_vectors(2, 2) if not (m.a @ v % 2).any()]
    assert [v.tolist() for v in dead] == [[0, 0], [1, 1]]
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0].tolist() == [1, 1]


def column(p, values):
    """A one-column right-hand side for `solve_matrix`."""
    return Matrix(p, np.reshape(values, (-1, 1)))


def test_solve_identity():
    x = solve_matrix(Matrix.identity(3, 2), column(3, [2, 1]))
    assert x.a.tolist() == [[2], [1]]


def test_solve_inconsistent():
    assert solve_matrix(Matrix.zeros(2, 2, 2), column(2, [1, 0])) is None


def test_solve_underdetermined():
    # Exhaustive check: solutions of [1 1] x = 0 are (0,0) and (1,1).
    x = solve_matrix(Matrix(2, [[1, 1]]), column(2, [0]))
    assert x is not None and x.a[:, 0].tolist() in ([0, 0], [1, 1])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_matrix(Matrix.identity(2, 2), column(2, [1, 0, 0]))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_vectors_die_and_count_matches(m):
    basis = kernel_basis(m)
    for v in basis:
        assert not ((m.a @ v) % m.p).any()
    assert rank(m) + len(basis) == m.cols


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    red = rref(m).reduced
    assert rref(red).reduced == red


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=3, primes=(2, 3)))
def test_kernel_is_exhaustive(m):
    got = {tuple(v.tolist()) for v in kernel_basis(m)}
    span = set()
    for coeffs in itertools.product(range(m.p), repeat=len(got)):
        vec = np.zeros(m.cols, dtype=np.int64)
        for c, v in zip(coeffs, sorted(got)):
            vec = (vec + c * np.array(v)) % m.p
        span.add(tuple(vec.tolist()))
    brute = {
        tuple(v.tolist()) for v in all_vectors(m.p, m.cols) if not ((m.a @ v) % m.p).any()
    }
    assert span == brute


def test_solve_consistency_matches_rank_criterion():
    # Brute force over seeded random systems up to 4x4 over F_2: solve_matrix
    # succeeds exactly when rank(a) == rank(a|b), and solutions verify.
    rng = np.random.default_rng(20240811)
    for _ in range(300):
        r = int(rng.integers(0, 5))
        c = int(rng.integers(0, 5))
        a = Matrix(2, rng.integers(0, 2, size=(r, c)))
        b = rng.integers(0, 2, size=r)
        x = solve_matrix(a, column(2, b))
        x = None if x is None else x.a[:, 0]
        aug = Matrix(2, np.hstack([a.a, b.reshape(-1, 1)]))
        if x is None:
            assert rank(a) < rank(aug)
            assert all(((a.a @ v - b) % 2).any() for v in all_vectors(2, c))
        else:
            assert rank(a) == rank(aug)
            assert not ((a.a @ x - b) % 2).any()


def _nonzero_rref_rows(p, rows):
    red = rref(Matrix(p, rows))
    return red.reduced.a[: red.rank].tolist(), list(red.pivots)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_echelon_tracks_rank_and_span(p):
    # Against `rank` and `rref` on seeded draws, half of them inside a
    # subspace of rank ≤ 2 so that `add` often finds w already spanned.
    rng = np.random.default_rng(p)
    for _ in range(80):
        n = int(rng.integers(0, 6))
        k = int(rng.integers(0, 4))
        basis = rng.integers(0, p, size=(2, n))

        def draw():
            if rng.integers(2):
                return rng.integers(0, p, size=2) @ basis % p
            return rng.integers(0, p, size=n) * int(rng.integers(2))

        seen = np.array([draw() for _ in range(k)], dtype=np.int64).reshape(k, n)
        ech = Echelon(p, n, seen)
        assert (ech.rows.tolist(), ech.pivots.tolist()) == _nonzero_rref_rows(p, seen)
        for _ in range(6):
            w = draw()
            grown = rank(Matrix(p, np.vstack([seen, w]))) > rank(Matrix(p, seen))
            red = ech.reduce(w)
            assert red.any() == grown
            assert not red[ech.pivots].any()
            assert ech.add(w) == grown
            seen = np.vstack([seen, w])
            assert (ech.rows.tolist(), ech.pivots.tolist()) == _nonzero_rref_rows(p, seen)


def test_echelon_edge_shapes():
    for ech in (Echelon(3, 0), Echelon(3, 0, np.zeros((2, 0), dtype=np.int64))):
        assert ech.rows.shape == (0, 0) and ech.pivots.size == 0
        assert ech.reduce(np.zeros(0, dtype=np.int64)).shape == (0,)
        assert ech.add(np.zeros(0, dtype=np.int64)) is False
    ech = Echelon(3, 3, np.zeros((2, 3), dtype=np.int64))
    assert ech.rows.shape == (0, 3)
    assert ech.reduce([1, 4, 2]).tolist() == [1, 1, 2]
    assert ech.add([0, 0, 3]) is False
    assert ech.add([0, 2, 1]) is True and ech.add([1, 0, 0]) is True
    assert ech.rows.tolist() == [[1, 0, 0], [0, 1, 2]] and ech.pivots.tolist() == [0, 1]
    # A 2-D argument is reduced column by column.
    cols = np.array([[1, 0], [1, 2], [1, 1]])
    assert ech.reduce(cols).tolist() == [[0, 0], [0, 0], [2, 0]]
    with pytest.raises(ValueError):
        Echelon(3, 2, np.zeros((1, 3), dtype=np.int64))


def test_matmul_and_immutability():
    m = Matrix(3, [[1, 2], [0, 1]])
    n = Matrix(3, [[2], [2]])
    assert (m @ n) == Matrix(3, [[0], [2]])
    with pytest.raises(ValueError):
        m.a[0, 0] = 5
