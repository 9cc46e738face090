"""Core data model for finitely presented bigraded modules over F_p[x, y].

A module is presented by generator bidegrees, relation bidegrees and a
scalar coefficient matrix; the monomial factor of entry (i, j) is implicit,
``x**(qx-px) * y**(qy-py)`` for generator degree p and relation degree q.
The same module can be evaluated functorially on a finite grid, giving one
vector space dimension per grid point and commuting horizontal / vertical
multiplication maps.

Bidegrees live in (N ∪ {∞})² with the componentwise partial order, where
every finite value is below ∞ and no finite value is above it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BoxTooSmall, IllegalEntry, InvariantViolation
from .linalg import Echelon, Matrix, check_modulus, inverse_mod, rank

INF = float("inf")

DEFAULT_FIELD = 2

# Finite degree coordinates must fit the int64 arrays of grid and legality code.
INT64_MAX = (1 << 63) - 1


def leq(a, b) -> bool:
    """Componentwise order on bigrades; finite < ∞, and ∞ ≤ ∞."""
    return a[0] <= b[0] and a[1] <= b[1]


def join(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def _check_finite_degree(d):
    x, y = d
    if type(x) is int and type(y) is int and 0 <= x <= INT64_MAX and 0 <= y <= INT64_MAX:
        return (x, y)
    if not (isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer))):
        raise ValueError(f"degree must have integer coordinates, got {d!r}")
    if not (0 <= x <= INT64_MAX and 0 <= y <= INT64_MAX):
        raise ValueError(f"degree coordinates must lie in [0, 2**63 - 1], got {d!r}")
    return (int(x), int(y))


def _degree_coord(v):
    if v == INF:
        return INF
    if isinstance(v, (int, np.integer)) and 0 <= v <= INT64_MAX:
        return int(v)
    raise ValueError(f"coordinate must be an integer in [0, 2**63 - 1] or ∞, got {v!r}")


@dataclass(frozen=True)
class Bar:
    """Half-open interval [birth, death) of a monoparameter module."""

    birth: int
    death: object  # int or INF

    def __post_init__(self):
        object.__setattr__(self, "birth", int(self.birth))
        object.__setattr__(self, "death", _degree_coord(self.death))
        if self.birth < 0:
            raise ValueError("bar birth must be nonnegative")
        if not self.birth < self.death:
            raise ValueError(f"bar needs birth < death, got [{self.birth}, {self.death})")


@dataclass(frozen=True)
class Hook:
    """Interval module supported on a quadrant at p minus the quadrant at q.

    The support is {α finite : p ≤ α and α ≱ q}.  A death corner with one
    infinite coordinate yields the same full-quadrant support as (∞, ∞), so
    such corners are normalized to (∞, ∞); each isomorphism class then has a
    unique representative.  Deaths bounded along a single axis are encoded
    with a finite q sharing the other coordinate of p (a strip).
    """

    p: tuple
    q: tuple

    def __post_init__(self):
        p = _check_finite_degree(self.p)
        qx, qy = (_degree_coord(v) for v in self.q)
        if qx == INF or qy == INF:
            q = (INF, INF)
        else:
            q = (qx, qy)
            if not leq(p, q):
                raise ValueError(f"hook needs p ≤ q, got p={p}, q={q}")
            if p == q:
                raise ValueError("hook needs p ≠ q (empty support otherwise)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_free(self) -> bool:
        return self.q == (INF, INF)

    def supports(self, alpha) -> bool:
        return leq(self.p, alpha) and not leq(self.q, alpha)

    def sort_key(self):
        return (self.p, self.q)


class Presentation:
    """Finitely presented bigraded module: gens, rels, scalar coefficients.

    ``coeffs`` has one row per generator and one column per relation; entry
    (i, j) is the scalar part of the homogeneous coefficient with the
    monomial factor implicit from the degree difference.
    """

    __slots__ = ("p", "gens", "rels", "coeffs")

    def __init__(self, p, gens, rels, coeffs=None):
        self.p = check_modulus(p)
        self.gens = tuple(_check_finite_degree(g) for g in gens)
        self.rels = tuple(_check_finite_degree(r) for r in rels)
        if coeffs is None:
            coeffs = Matrix.zeros(self.p, len(self.gens), len(self.rels))
        elif not isinstance(coeffs, Matrix):
            coeffs = Matrix(self.p, np.asarray(coeffs, dtype=np.int64).reshape(len(self.gens), len(self.rels)))
        if coeffs.p != self.p:
            raise ValueError("coefficient matrix modulus differs from presentation modulus")
        if coeffs.shape != (len(self.gens), len(self.rels)):
            raise ValueError(
                f"coefficient matrix shape {coeffs.shape} does not match "
                f"{len(self.gens)} gens × {len(self.rels)} rels"
            )
        self.coeffs = coeffs

    @property
    def n_gens(self) -> int:
        return len(self.gens)

    @property
    def n_rels(self) -> int:
        return len(self.rels)

    def bounding_box(self):
        """Componentwise max of all generator and relation degrees."""
        nx = max([d[0] for d in self.gens + self.rels], default=0)
        ny = max([d[1] for d in self.gens + self.rels], default=0)
        return (nx, ny)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.p == other.p
            and self.gens == other.gens
            and self.rels == other.rels
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.gens, self.rels, self.coeffs))

    def __repr__(self):
        return (
            f"Presentation(p={self.p}, gens={list(self.gens)!r}, "
            f"rels={list(self.rels)!r}, coeffs={self.coeffs.a.tolist()!r})"
        )


def legal_mask(low, high) -> np.ndarray:
    """Boolean (len(low), len(high)) array, True where low[i] ≤ high[j]: the
    entries of a map between free modules with these finite degrees that
    can carry a monomial."""
    lo = np.asarray(low, dtype=np.int64).reshape(-1, 2)
    hi = np.asarray(high, dtype=np.int64).reshape(-1, 2)
    return (lo[:, None, 0] <= hi[None, :, 0]) & (lo[:, None, 1] <= hi[None, :, 1])


def validate(pres: Presentation) -> Presentation:
    """Check all presentation invariants; returns the input unchanged.

    Raises IllegalEntry when a nonzero coefficient sits at a position whose
    relation degree is not above the generator degree (no legal monomial).
    """
    bad = (pres.coeffs.a != 0) & ~legal_mask(pres.gens, pres.rels)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise IllegalEntry(
            f"coefficient at generator {i} (degree {pres.gens[i]}), relation {j} "
            f"(degree {pres.rels[j]}) is nonzero but {pres.rels[j]} ≱ {pres.gens[i]}"
        )
    return pres


def direct_sum(*presentations: Presentation) -> Presentation:
    """Block-diagonal direct sum of presentations over the same field."""
    if not presentations:
        return Presentation(DEFAULT_FIELD, [], [])
    p = presentations[0].p
    if any(q.p != p for q in presentations):
        raise ValueError("direct sum requires a common field modulus")
    gens = [g for pr in presentations for g in pr.gens]
    rels = [r for pr in presentations for r in pr.rels]
    coeffs = np.zeros((len(gens), len(rels)), dtype=np.int64)
    gi = ri = 0
    for pr in presentations:
        coeffs[gi : gi + pr.n_gens, ri : ri + pr.n_rels] = pr.coeffs.a
        gi += pr.n_gens
        ri += pr.n_rels
    return Presentation(p, gens, rels, Matrix(p, coeffs))


def _born_by(degrees, d) -> list:
    """Indices of the degrees ≤ d: the free generators born by d."""
    return [i for i, g in enumerate(degrees) if leq(g, d)]


def _dims_at(pres: Presentation, points) -> np.ndarray:
    """dim M(d) = |G_d| − rank C[:, R_d] at each point d, one rank per point:
    by legality, relations born by d vanish off the generators born by d."""
    born = legal_mask(pres.rels, points)
    c = pres.coeffs.a
    ranks = [rank(Matrix(pres.p, c[:, col])) if col.any() else 0 for col in born.T]
    return legal_mask(pres.gens, points).sum(axis=0) - np.asarray(ranks, dtype=np.int64)


def hilbert_function(pres: Presentation, degree) -> int:
    """Dimension of the module at one finite bidegree, without a grid."""
    return int(_dims_at(validate(pres), [degree])[0])


def hilbert_grid(pres: Presentation) -> np.ndarray:
    """dim M(d) at every point d of `classification_box(pres)`, indexed
    ``[a, b]`` like `GridModule.dims`, without bases or maps."""
    bx, by = classification_box(pres)
    points = np.indices((bx + 1, by + 1)).reshape(2, -1).T
    return _dims_at(validate(pres), points).reshape(bx + 1, by + 1)


def minimize(pres: Presentation) -> Presentation:
    """Minimal presentation of the same module.

    First cancels unit entries (relation degree equal to generator degree)
    by legal column operations, then drops relation columns that already lie
    in the submodule generated by the remaining ones.  The surviving degree
    multisets are the graded Betti numbers in homological degrees 0 and 1.
    """
    validate(pres)
    p = pres.p
    gens = list(pres.gens)
    rels = list(pres.rels)
    c = pres.coeffs.a.copy()

    # Unit cancellation: pivot on the first entry, in (j, i) order, with
    # q_j == p_i, clear its row by column operations (always degree-legal),
    # then delete gen i and rel j.
    g, r = np.asarray(gens, dtype=np.int64).reshape(-1, 1, 2), np.asarray(rels, dtype=np.int64).reshape(1, -1, 2)
    same = (g == r).all(axis=2)
    while True:
        hits = np.argwhere(((c != 0) & same).T)
        if not hits.size:
            break
        j, i = map(int, hits[0])
        factors = (c[i] * inverse_mod(int(c[i, j]), p)) % p
        factors[j] = 0
        c = (c - np.outer(c[:, j], factors)) % p
        c = np.delete(np.delete(c, i, axis=0), j, axis=1)
        same = np.delete(np.delete(same, i, axis=0), j, axis=1)
        gens.pop(i)
        rels.pop(j)

    # Redundant-column removal: scan relation degrees along a linear
    # extension of the componentwise order and keep a column only if it is
    # not already in the span of kept columns of degree ≤ it.  By legality
    # these columns vanish off the generators born by its degree.
    order = sorted(range(len(rels)), key=lambda j: (rels[j][0] + rels[j][1], rels[j][0], j))
    kept: list[int] = []
    for j in order:
        usable = [k for k in kept if leq(rels[k], rels[j])]
        if Echelon(p, len(gens), c[:, usable].T).add(c[:, j]):
            kept.append(j)
    kept.sort()
    return Presentation(p, gens, [rels[j] for j in kept], Matrix(p, c[:, kept] if kept else np.zeros((len(gens), 0), dtype=np.int64)))


def compress(pres: Presentation):
    """``(cpres, axes)``: each coordinate replaced by its rank in ``axes``,
    the sorted distinct x- and y-values of the degrees; coefficients kept.
    Maps between consecutive values are isomorphisms, so the Betti degrees
    and hook corners of `cpres` are those of `pres` under `expand`."""
    axes = tuple(tuple(sorted({d[k] for d in pres.gens + pres.rels})) for k in (0, 1))
    index = [{v: i for i, v in enumerate(axis)} for axis in axes]
    relabel = lambda degrees: [(index[0][x], index[1][y]) for x, y in degrees]
    return Presentation(pres.p, relabel(pres.gens), relabel(pres.rels), pres.coeffs), axes


def expand(degree, axes):
    """Map a degree of the compressed grid back; ∞ stays ∞."""
    return tuple(INF if v == INF else axis[v] for v, axis in zip(degree, axes))


def classification_box(pres: Presentation):
    """Bounding box of all presentation degrees, enlarged by (1, 1).

    Beyond the bounding box no generator or relation is born, so every
    multiplication map out of the frontier is an isomorphism and the
    restriction to this box determines the module up to isomorphism.  The
    isomorphism claim is re-checked at runtime by `stable_grid`.
    """
    nx, ny = pres.bounding_box()
    return (nx + 1, ny + 1)


def box_degrees(box):
    """All grid points of [0, box[0]] × [0, box[1]] in a linear extension
    of the componentwise order (sorted by coordinate sum, then x)."""
    pts = [(a, b) for a in range(box[0] + 1) for b in range(box[1] + 1)]
    pts.sort(key=lambda d: (d[0] + d[1], d[0]))
    return pts


class GridModule:
    """Functorial evaluation of a module on a finite grid.

    ``dims[a][b]`` is the vector space dimension at (a, b); ``hmap(a, b)``
    is the matrix of x-multiplication (a, b) → (a+1, b) and ``vmap(a, b)``
    of y-multiplication (a, b) → (a, b+1).  Every unit square commutes.
    """

    __slots__ = ("p", "box", "dims", "_h", "_v")

    def __init__(self, p, box, dims, hmaps, vmaps, check=True):
        self.p = check_modulus(p)
        self.box = (int(box[0]), int(box[1]))
        d = np.asarray(dims, dtype=np.int64)
        if d.shape != (self.box[0] + 1, self.box[1] + 1):
            raise ValueError(f"dims shape {d.shape} does not match box {self.box}")
        d = d.copy()
        d.setflags(write=False)
        self.dims = d
        self._h = tuple(tuple(row) for row in hmaps)
        self._v = tuple(tuple(row) for row in vmaps)
        if check:
            self._check()

    def _check(self):
        bx, by = self.box
        if len(self._h) != bx or any(len(row) != by + 1 for row in self._h):
            raise ValueError("hmap grid has wrong shape")
        if len(self._v) != bx + 1 or any(len(row) != by for row in self._v):
            raise ValueError("vmap grid has wrong shape")
        for a in range(bx + 1):
            for b in range(by + 1):
                if a < bx:
                    h = self.hmap(a, b)
                    if h.shape != (int(self.dims[a + 1, b]), int(self.dims[a, b])):
                        raise ValueError(f"hmap({a},{b}) shape {h.shape} mismatches dims")
                if b < by:
                    v = self.vmap(a, b)
                    if v.shape != (int(self.dims[a, b + 1]), int(self.dims[a, b])):
                        raise ValueError(f"vmap({a},{b}) shape {v.shape} mismatches dims")
        for a in range(bx):
            for b in range(by):
                if self.vmap(a + 1, b) @ self.hmap(a, b) != self.hmap(a, b + 1) @ self.vmap(a, b):
                    raise ValueError(f"square at ({a},{b}) does not commute")

    def dim(self, a, b) -> int:
        return int(self.dims[a, b])

    def hmap(self, a, b) -> Matrix:
        return self._h[a][b]

    def vmap(self, a, b) -> Matrix:
        return self._v[a][b]

    @property
    def is_zero(self) -> bool:
        return not self.dims.any()


# Per-degree quotient bookkeeping for grid evaluation: the indices of the
# generators born by the degree (sorted), the echelon of the evaluated
# relation space in those generators' coordinates, and the non-pivot
# positions, which index the quotient basis.
_DegreeData = namedtuple("_DegreeData", ["gens", "ech", "free"])


def _degree_data(pres: Presentation, degree) -> _DegreeData:
    gi = np.asarray(_born_by(pres.gens, degree), dtype=np.intp)
    rj = np.asarray(_born_by(pres.rels, degree), dtype=np.intp)
    sub = pres.coeffs.a[np.ix_(gi, rj)] if gi.size and rj.size else np.zeros((gi.size, rj.size), dtype=np.int64)
    ech = Echelon(pres.p, gi.size, sub.T)
    free = np.asarray(sorted(set(range(gi.size)).difference(ech.pivots.tolist())), dtype=np.intp)
    return _DegreeData(gi, ech, free)


def grid_coordinates(pres: Presentation, degree, v) -> np.ndarray:
    """Coordinates in the `to_grid` basis at `degree` of the element
    Σ v_i·g_i, where v has one entry per generator and vanishes on every
    generator not born by `degree`."""
    dd = _degree_data(pres, degree)
    return dd.ech.reduce(np.asarray(v, dtype=np.int64)[dd.gens])[dd.free]


def to_grid(pres: Presentation, box) -> GridModule:
    """Evaluate a presentation on [0, box[0]] × [0, box[1]].

    At each degree the module is the span of born generators modulo the
    evaluated relation columns; bases are picked deterministically from
    echelon pivots so repeated runs agree.  Maps are induced by inclusion
    of the monomial bases.  Raises BoxTooSmall if the box has a negative
    side or does not contain every generator and relation degree.
    """
    validate(pres)
    p = pres.p
    bx, by = int(box[0]), int(box[1])
    nx, ny = pres.bounding_box()
    if not (nx <= bx and ny <= by):  # (nx, ny) is (0, 0) for the zero module
        raise BoxTooSmall(f"box {(bx, by)} does not cover presentation degrees {(nx, ny)}")

    data = {(a, b): _degree_data(pres, (a, b)) for a in range(bx + 1) for b in range(by + 1)}
    dims = np.array([[data[(a, b)].free.size for b in range(by + 1)] for a in range(bx + 1)], dtype=np.int64)

    def induced(src, dst) -> Matrix:
        ds, dt = data[src], data[dst]
        if ds.free.size == 0 or dt.gens.size == 0:
            return Matrix.zeros(p, dt.free.size, ds.free.size)
        w = np.zeros((dt.gens.size, ds.free.size), dtype=np.int64)
        pos = np.searchsorted(dt.gens, ds.gens[ds.free])
        w[pos, np.arange(ds.free.size)] = 1
        return Matrix(p, dt.ech.reduce(w)[dt.free, :])

    hmaps = [[induced((a, b), (a + 1, b)) for b in range(by + 1)] for a in range(bx)]
    vmaps = [[induced((a, b), (a, b + 1)) for b in range(by)] for a in range(bx + 1)]
    return GridModule(p, (bx, by), dims, hmaps, vmaps, check=False)


def frontier_is_stable(grid: GridModule) -> bool:
    """True when every map leaving the last column/row is an isomorphism."""
    bx, by = grid.box
    for b in range(by + 1):
        h = grid.hmap(bx - 1, b)
        if h.rows != h.cols or rank(h) != h.rows:
            return False
    for a in range(bx + 1):
        v = grid.vmap(a, by - 1)
        if v.rows != v.cols or rank(v) != v.rows:
            return False
    return True


def stable_grid(pres: Presentation):
    """Grid on the classification box, checked for frontier stability.

    The stability property is a theorem for presentations contained in the
    bounding box, so a failed runtime check is a bug and raises
    InvariantViolation.
    """
    box = classification_box(pres)
    grid = to_grid(pres, box)
    if not frontier_is_stable(grid):
        raise InvariantViolation(f"frontier of the classification box {box} is not stable")
    return grid, box
