"""Minimal free resolutions, graded Betti numbers, projective dimension.

Betti numbers are computed by three routes.  `classify` takes β0 and β1
off its minimal presentation, whose degrees they are, and β2 from the
Hilbert function on the classification box (`_minimal_betti`): the Möbius
inversion

    H(a, b) − H(a−1, b) − H(a, b−1) + H(a−1, b−1) = β0 − β1 + β2

holds at every bidegree (Miller–Sturmfels, *Combinatorial Commutative
Algebra*, ch. 8).  The check route, `betti_table`, reads all three off the
grid of the unminimized input: at each bidegree the three-term complex

    M(a-1, b-1) --(y·m, -x·m)--> M(a-1, b) ⊕ M(a, b-1) --(x·u + y·v)--> M(a, b)

has homology of dimension β2, β1, β0 at that bidegree.  The third route
computes the syzygy module of the presentation map degreewise and extracts
its minimal generators; it doubles as the level-2 map of the explicit
resolution.  Over two variables the resolution stops at homological
degree 2, so projective dimension is 0, 1 or 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigraded import (
    GridModule,
    Presentation,
    _born_by,
    box_degrees,
    classification_box,
    compress,
    expand,
    leq,
    legal_mask,
    minimize,
    stable_grid,
    validate,
)
from .errors import InvariantViolation
from .linalg import Echelon, Matrix, kernel_basis, rank


def _sorted_degrees(degrees):
    return tuple(sorted(degrees))


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers as lex-sorted degree multisets per index."""

    beta0: tuple
    beta1: tuple
    beta2: tuple

    def beta(self, i):
        return (self.beta0, self.beta1, self.beta2)[i]

    def total(self, i) -> int:
        return len(self.beta(i))

    def as_triples(self):
        """{index: [[a, b, multiplicity], ...]} with lex-sorted degrees."""
        out = {}
        for i in range(3):
            counts = {}
            for d in self.beta(i):
                counts[d] = counts.get(d, 0) + 1
            out[i] = [[d[0], d[1], c] for d, c in sorted(counts.items())]
        return out

    def expand(self, axes) -> "BettiTable":
        """The same table with every degree mapped back by `expand`."""
        return BettiTable(*(_sorted_degrees(expand(d, axes) for d in self.beta(i)) for i in range(3)))


class Resolution:
    """Explicit minimal free resolution 0 → F2 → F1 → F0 (→ M → 0).

    Each level stores its generator degrees; the two maps are scalar
    coefficient matrices with monomials implicit, exactly as in a
    presentation.  Consecutive maps must compose to zero and every entry
    must carry a legal monomial.
    """

    __slots__ = ("p", "gens0", "gens1", "gens2", "d1", "d2")

    def __init__(self, p, gens0, gens1, gens2, d1: Matrix, d2: Matrix):
        self.p = p
        self.gens0 = tuple(gens0)
        self.gens1 = tuple(gens1)
        self.gens2 = tuple(gens2)
        self.d1 = d1
        self.d2 = d2
        if d1.shape != (len(self.gens0), len(self.gens1)):
            raise ValueError("level-1 map shape mismatch")
        if d2.shape != (len(self.gens1), len(self.gens2)):
            raise ValueError("level-2 map shape mismatch")
        for degs_r, degs_c, m in ((self.gens0, self.gens1, d1), (self.gens1, self.gens2, d2)):
            bad = np.argwhere((m.a != 0) & ~legal_mask(degs_r, degs_c))
            if len(bad):
                raise ValueError(f"illegal map entry at ({bad[0][0]}, {bad[0][1]})")
        if not (d1 @ d2).is_zero:
            raise ValueError("consecutive maps do not compose to zero")

    def betti(self) -> BettiTable:
        return BettiTable(
            _sorted_degrees(self.gens0), _sorted_degrees(self.gens1), _sorted_degrees(self.gens2)
        )


def _koszul_betti(grid: GridModule, a: int, b: int):
    """(β0, β1, β2) at one bidegree from the three-term complex."""
    p = grid.p
    dim = grid.dim(a, b)
    blocks = []
    if a > 0:
        blocks.append(grid.hmap(a - 1, b))
    if b > 0:
        blocks.append(grid.vmap(a, b - 1))
    d1 = Matrix.hstack(blocks) if blocks else Matrix.zeros(p, dim, 0)
    mid = d1.cols
    if a > 0 and b > 0:
        up = grid.vmap(a - 1, b - 1).a
        right = grid.hmap(a - 1, b - 1).a
        d2 = Matrix(p, np.vstack([up, -right]))
        src = d2.cols
    else:
        d2 = Matrix.zeros(p, mid, 0)
        src = 0
    r1 = rank(d1)
    r2 = rank(d2)
    beta0 = dim - r1
    beta1 = (mid - r1) - r2
    beta2 = src - r2
    return beta0, beta1, beta2


def grid_betti(grid: GridModule) -> BettiTable:
    """Graded Betti numbers of a grid module on a classification box.

    Reads the homology of the three-term complex at every grid point.  The
    box reaches one step past every presentation degree and no Betti number
    lies beyond the bounding box, so a contribution in the frontier row or
    column is a bug; this is asserted as a safety net.
    """
    bx, by = grid.box
    betas = ([], [], [])
    for a in range(bx + 1):
        for b in range(by + 1):
            counts = _koszul_betti(grid, a, b)
            if (a == bx or b == by) and any(counts):
                raise InvariantViolation(f"Betti contribution at {(a, b)} on the frontier of the box {grid.box}")
            for mult, acc in zip(counts, betas):
                acc.extend([(a, b)] * mult)
    return BettiTable(*(_sorted_degrees(acc) for acc in betas))


def _minimal_betti(cpres: Presentation, dims) -> BettiTable:
    """Graded Betti numbers of a compressed minimal presentation from its
    Hilbert function `dims` on the classification box.

    β0 and β1 are the generator and relation degrees; β2 is the Möbius
    inversion of `dims` minus β0 plus β1.  Three safety nets raise
    InvariantViolation: β2 < 0 at some point, β2 in the frontier row or
    column, and a β2 total other than n_rels − rank C.

    The last one is the pd rule.  The kernel K of F1 → F0 is free
    (Hilbert's syzygy theorem in two variables), its β2 generators lie in
    the bounding box, and multiplication by a monomial is injective on it.
    So K at any degree embeds into K at the join of all degrees, where
    every generator and relation is present and the map is C itself, and
    there K has dimension β2 total = n_rels − rank C.  Hence β2 = ∅, that
    is pd ≤ 1, exactly when rank C = n_rels.
    """
    h = np.asarray(dims, dtype=np.int64)
    beta2 = h.copy()
    beta2[1:, :] -= h[:-1, :]
    beta2[:, 1:] -= h[:, :-1]
    beta2[1:, 1:] += h[:-1, :-1]
    for degrees, sign in ((cpres.gens, -1), (cpres.rels, 1)):
        at = np.asarray(degrees, dtype=np.intp).reshape(-1, 2)
        np.add.at(beta2, (at[:, 0], at[:, 1]), sign)
    if (beta2 < 0).any():
        raise InvariantViolation(f"negative β2 at {tuple(map(int, np.argwhere(beta2 < 0)[0]))}")
    if beta2[-1, :].any() or beta2[:, -1].any():
        raise InvariantViolation(f"β2 on the frontier of the box {(h.shape[0] - 1, h.shape[1] - 1)}")
    kernel_rank = cpres.n_rels - rank(cpres.coeffs)
    if int(beta2.sum()) != kernel_rank:
        raise InvariantViolation(f"{int(beta2.sum())} β2 degrees, but ker C has rank {kernel_rank}")
    beta2_degrees = [(int(a), int(b)) for a, b in np.argwhere(beta2) for _ in range(beta2[a, b])]
    return BettiTable(_sorted_degrees(cpres.gens), _sorted_degrees(cpres.rels), tuple(beta2_degrees))


def betti_table(pres: Presentation) -> BettiTable:
    """Graded Betti numbers of the presented module (grid homology route).

    The check on `classify`'s table.  Evaluates the presentation as given,
    unminimized, so this route stays independent of `minimize`, of
    `_minimal_betti` and of `syzygy_presentation`, on the grid of
    `compress(pres)`; the degrees are mapped back by `expand`.
    """
    cpres, axes = compress(pres)
    return grid_betti(stable_grid(cpres)[0]).expand(axes)


def syzygy_presentation(pres: Presentation) -> Presentation:
    """Presentation of the kernel of the presentation map F1 → F0.

    Expects a minimized presentation.  The kernel is computed degreewise on
    the classification box, as full-length vectors over the relations; an
    element is a minimal generator at a degree when it is not in the span of
    the kernels at the two immediate predecessor degrees and of the
    generators already taken at this degree.  No generator can appear
    outside the bounding box (multiplication acts injectively on the kernel
    out there); this is asserted as a safety net.
    """
    validate(pres)
    p = pres.p
    m = pres.n_rels
    box = classification_box(pres)
    nx, ny = pres.bounding_box()

    kernels = {}
    syz_degrees = []
    syz_columns = []
    for d in box_degrees(box):
        rj = _born_by(pres.rels, d)
        kb = kernel_basis(pres.coeffs.take(_born_by(pres.gens, d), rj))
        kernels[d] = np.zeros((len(kb), m), dtype=np.int64)
        if not kb:
            continue
        kernels[d][:, rj] = kb
        preds = [kernels[prev] for prev in ((d[0] - 1, d[1]), (d[0], d[1] - 1)) if prev in kernels]
        reach = Echelon(p, m, np.vstack(preds) if preds else None)
        for v in kernels[d]:
            if not reach.add(v):
                continue
            if d[0] > nx or d[1] > ny:
                raise InvariantViolation(f"syzygy generator at {d} outside bounding box")
            syz_degrees.append(d)
            syz_columns.append(v)

    coeffs = Matrix(p, np.array(syz_columns, dtype=np.int64).reshape(len(syz_columns), m).T)
    return Presentation(p, pres.rels, syz_degrees, coeffs)


def minimal_free_resolution(pres: Presentation) -> Resolution:
    """Minimal free resolution: minimize for levels 0/1, syzygies for level 2,
    computed on `compress` of the minimal presentation and mapped back by
    `expand`, so their cost follows the number of distinct degrees."""
    m = minimize(pres)
    cm, axes = compress(m)
    syz = syzygy_presentation(cm)
    # List the level-2 generators as `syzygy_presentation` does on the full
    # box: by x + y, then x.
    degs = [expand(d, axes) for d in syz.rels]
    order = sorted(range(len(degs)), key=lambda j: (degs[j][0] + degs[j][1], degs[j][0]))
    return Resolution(m.p, m.gens, m.rels, [degs[j] for j in order], m.coeffs, syz.coeffs.take(None, order))


def verify_exactness(res: Resolution) -> bool:
    """Degreewise exactness of 0 → F2 → F1 → F0 → M → 0.

    At each degree the evaluated maps must satisfy: D2 injective, and rank
    D2 = dim ker D1.  Exactness at F0 → M → 0 holds by definition, since M
    is coker D1, so there is nothing to check there.  The maps change only
    at the distinct x- and y-coordinates of the degrees, and vanish below
    them, so only the degrees on those coordinates are visited.
    """
    degrees = res.gens0 + res.gens1 + res.gens2
    xs, ys = (sorted({d[k] for d in degrees}) for k in (0, 1))
    for d in [(x, y) for x in xs for y in ys]:
        born1, born2 = _born_by(res.gens1, d), _born_by(res.gens2, d)
        dim1, dim2 = len(born1), len(born2)
        r1 = rank(res.d1.take(_born_by(res.gens0, d), born1))
        r2 = rank(res.d2.take(born1, born2))
        if r2 != dim2:  # exactness at F2: the last map is injective
            return False
        if dim1 - r1 != r2:  # exactness at F1: ker D1 = im D2
            return False
    return True


def hilbert_from_betti(bt: BettiTable, degree) -> int:
    """Alternating count of free-cover contributions below a degree.

    Each Betti degree (u, v) contributes the indicator of (u, v) ≤ degree
    with sign (−1)^i; for the true Betti table this reproduces the Hilbert
    function exactly, as an integer identity.
    """
    total = 0
    for i, sign in ((0, 1), (1, -1), (2, 1)):
        total += sign * sum(1 for d in bt.beta(i) if leq(d, degree))
    return total
