"""Direct-sum structure of grid modules.

Contains the hook peel, which counts hook multiplicities as pairing ranks
read off a minimal presentation and checks its certificate by its Smith
form on that same presentation (`classify` is the one pipeline that
minimizes, compresses and calls it), and the independent grid routes: hook
recognition from support shape, hom spaces as natural-transformation
kernels, `verify_certificate`, and a brute-force cross-validation oracle
that splits along idempotents found by exhaustive enumeration.  A morphism
of grid modules is a plain dict {grid point: component Matrix} over every
point of the box.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bigraded import (
    INF,
    GridModule,
    Hook,
    Presentation,
    _born_by,
    compress,
    expand,
    grid_coordinates,
    leq,
    legal_mask,
    minimize,
    stable_grid,
)
from .errors import InvariantViolation, ThresholdExceeded
from .linalg import (
    Matrix,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
)

# The oracle enumerates p^dim endomorphisms, so it refuses above this many.
_ORACLE_CAP = 2**16
# Endomorphism coefficient vectors tested per vectorized batch by the oracle.
_IDEMPOTENT_CHUNK = 2048


@dataclass(frozen=True)
class HookCertificate:
    """A hook multiset, in input coordinates, and the change of generator
    basis P that exhibits it: one row per generator of M's minimal
    presentation, one column per hook in `hooks` order, generating that
    hook.  Entries are scalars with implicit monomials x^(p_k − g_i), as in
    a presentation, so compressing the degrees leaves P unchanged."""

    hooks: tuple
    basis: Matrix

    def expand(self, axes) -> "HookCertificate":
        """The same certificate with its hook corners mapped back by `expand`."""
        hooks = tuple(Hook(expand(h.p, axes), expand(h.q, axes)) for h in self.hooks)
        return HookCertificate(hooks, self.basis)

    def diagonal_presentation(self) -> Presentation:
        """One generator and at most one monomial relation per summand."""
        p = self.basis.p
        gens = [h.p for h in self.hooks]
        bounded = [(i, h.q) for i, h in enumerate(self.hooks) if not h.is_free]
        coeffs = np.zeros((len(gens), len(bounded)), dtype=np.int64)
        for col, (i, _) in enumerate(bounded):
            coeffs[i, col] = 1
        return Presentation(p, gens, [q for _, q in bounded], Matrix(p, coeffs))


def _edges(box):
    bx, by = box
    for a in range(bx + 1):
        for b in range(by + 1):
            if a < bx:
                yield (a, b), (a + 1, b), "h"
            if b < by:
                yield (a, b), (a, b + 1), "v"


def hom_basis(M: GridModule, N: GridModule) -> list:
    """Basis of the space of natural transformations M → N.

    Solves the linear system expressing commutation with every structure
    map.  Each basis element is a dict {grid point: component Matrix}
    mapping M's fibre to N's, with one entry per point of the box; the basis
    order is fixed by the kernel computation, so results are deterministic.
    """
    if M.p != N.p or M.box != N.box:
        raise ValueError("hom requires a common field and box")
    p = M.p
    points = [(a, b) for a in range(M.box[0] + 1) for b in range(M.box[1] + 1)]
    offset = {}
    total = 0
    for pt in points:
        offset[pt] = total
        total += M.dim(*pt) * N.dim(*pt)

    blocks = []
    for src, dst, kind in _edges(M.box):
        a_map = M.hmap(*src) if kind == "h" else M.vmap(*src)
        b_map = N.hmap(*src) if kind == "h" else N.vmap(*src)
        n_dst, m_src = N.dim(*dst), M.dim(*src)
        n_rows = n_dst * m_src
        if n_rows == 0:
            continue
        block = np.zeros((n_rows, total), dtype=np.int64)
        w_dst = N.dim(*dst) * M.dim(*dst)
        if w_dst:
            block[:, offset[dst] : offset[dst] + w_dst] = np.kron(
                np.eye(n_dst, dtype=np.int64), a_map.a.T
            )
        w_src = N.dim(*src) * M.dim(*src)
        if w_src:
            block[:, offset[src] : offset[src] + w_src] = (
                -np.kron(b_map.a, np.eye(m_src, dtype=np.int64))
            ) % p
        blocks.append(block)

    system = np.vstack(blocks) if blocks else np.zeros((0, total), dtype=np.int64)
    shapes = {pt: (N.dim(*pt), M.dim(*pt)) for pt in points}
    return [
        {pt: Matrix(p, vec[offset[pt] : offset[pt] + n * m].reshape(n, m)) for pt, (n, m) in shapes.items()}
        for vec in kernel_basis(Matrix(p, system))
    ]


def hook_profile(M: GridModule):
    """The Hook whose support and maps M realizes, or None.

    Requires pointwise dimension at most 1, support of exact hook shape,
    and all structure maps between support points invertible.  An empty
    support is not a hook.  Deaths on the outer frontier of the box cannot
    be told apart from unstable truncation, so they are rejected; grids
    built on a classification box never die there.
    """
    dims = M.dims
    if (dims > 1).any() or not dims.any():
        return None
    mask = dims == 1
    xs, ys = np.nonzero(mask)
    p_corner = (int(xs.min()), int(ys.min()))
    if not mask[p_corner]:
        return None
    quad = np.zeros_like(mask)
    quad[p_corner[0] :, p_corner[1] :] = True
    if (mask & ~quad).any():
        return None
    dead = quad & ~mask
    if not dead.any():
        q_corner = (INF, INF)
    else:
        dx, dy = np.nonzero(dead)
        q_corner = (int(dx.min()), int(dy.min()))
        if q_corner[0] == M.box[0] or q_corner[1] == M.box[1]:
            return None
        expected_dead = np.zeros_like(mask)
        expected_dead[q_corner[0] :, q_corner[1] :] = True
        if not np.array_equal(dead, expected_dead):
            return None
    hook = Hook(p_corner, q_corner)
    for src, dst, kind in _edges(M.box):
        if mask[src] and mask[dst]:
            m = M.hmap(*src) if kind == "h" else M.vmap(*src)
            if not m.a[0, 0]:
                return None
    return hook


def _propagate(M: GridModule, start, v):
    """Images of a vector at `start` under all monomial multiplications."""
    bx, by = M.box
    w = {start: np.asarray(v, dtype=np.int64) % M.p}
    for a in range(start[0], bx + 1):
        for b in range(start[1], by + 1):
            if (a, b) == start:
                continue
            if a > start[0]:
                w[(a, b)] = M.hmap(a - 1, b).apply(w[(a - 1, b)])
            else:
                w[(a, b)] = M.vmap(a, b - 1).apply(w[(a, b - 1)])
    return w


def _hook_generators(pres: Presentation, hook: Hook) -> list:
    """Generators of the copies of `hook` = [p, q) that split off M = coker C.

    Hom(M, H) is the kernel of C[S_g, S_r]ᵀ, with S_g and S_r the generators
    and relations in supp H, and t_p sees only the generators E_p of degree
    p.  With G_d, R_d the generators and relations ≤ d, ker(M(p) → M(q)) is
    spanned by C[:, R_q]·w for w in ker C[G_q ∖ G_p, R_q]; for q = ∞, t_p
    kills all of M(p) but the unit vectors of E_p.  The pivot columns of the
    pairing T[:, E_p]·V[E_p, :] are returned, with one entry per generator;
    their number is the multiplicity of H.
    """
    p, c, gens, rels = pres.p, pres.coeffs.a, pres.gens, pres.rels
    s_g = [i for i, g in enumerate(gens) if hook.supports(g)]
    s_r = [j for j, r in enumerate(rels) if hook.supports(r)]
    at_p = [k for k, i in enumerate(s_g) if gens[i] == hook.p]
    e_p = [s_g[k] for k in at_p]
    ts = kernel_basis(Matrix(p, c[np.ix_(s_g, s_r)].T))
    if hook.is_free:
        vs = list(np.eye(len(gens), dtype=np.int64)[e_p])
    else:
        new = [i for i, g in enumerate(gens) if leq(g, hook.q) and not leq(g, hook.p)]
        r_q = _born_by(rels, hook.q)
        vs = [(c[:, r_q] @ w) % p for w in kernel_basis(Matrix(p, c[np.ix_(new, r_q)]))]
    if not ts or not vs:
        return []
    pairing = np.vstack(ts)[:, at_p] @ np.column_stack(vs)[e_p, :]
    return [vs[k] for k in rref(Matrix(p, pairing)).pivots]


def _blocks_invertible(m: Matrix, row_degs, col_degs) -> bool:
    """True when, for every degree, the block of `m` between the rows and
    the columns of that degree is square and invertible."""
    for d in set(row_degs) | set(col_degs):
        rows = [i for i, g in enumerate(row_degs) if g == d]
        cols = [j for j, r in enumerate(col_degs) if r == d]
        if len(rows) != len(cols) or rank(m.take(rows, cols)) != len(rows):
            return False
    return True


def _check_smith_form(pres: Presentation, cert: HookCertificate) -> None:
    """Raise InvariantViolation unless P = `cert.basis` puts C in Smith form.

    For `pres` = coker C minimal, with degrees g_i, r_j and hooks [p_k, q_k):
    (1) P[i, k] ≠ 0 only if g_i ≤ p_k; (2) each equal-degree block of P is
    square and invertible, so P is a graded automorphism (Nakayama) with a
    legal scalar inverse; (3) C′ = P⁻¹C; (4) row k of C′ is zero if hook k
    is free and otherwise off the columns with r_j ≥ q_k; (5) each
    equal-degree block of C′ between rows at q_k and columns at r_j is
    square and invertible.  Then C′ = D·C″ with D = diag(x^(q_k − p_k)) and
    C″ graded-invertible, so coker C ≅ coker D, the sum of the hooks
    (Dey–Xin, arXiv:1904.03766).
    """
    hooks, basis = cert.hooks, cert.basis
    births = [h.p for h in hooks]
    if basis.a[~legal_mask(pres.gens, births)].any() or not _blocks_invertible(basis, pres.gens, births):
        raise InvariantViolation("hook generators are not a graded basis of the free cover")
    c2 = solve_matrix(basis, pres.coeffs)
    bounded = [k for k, h in enumerate(hooks) if not h.is_free]
    deaths = [hooks[k].q for k in bounded]
    allowed = np.zeros(c2.shape, dtype=bool)
    allowed[bounded] = legal_mask(deaths, pres.rels)
    if c2.a[~allowed].any() or not _blocks_invertible(c2.take(bounded), deaths, pres.rels):
        raise InvariantViolation("relations in the hook basis are not the hook deaths")


def peel_hooks(pres: Presentation):
    """Split a module into hooks; return a checked certificate or None.

    `pres` is a minimal presentation, so its generator and relation degrees
    are β0 and β1.  For each β0 degree p and each β1 degree q above p, then
    ∞, the multiplicity of H = [p, q) is the rank of the pairing t, v ↦
    t_p(v) between Hom(M, H) and ker(M(p) → M(q)) ≅ Hom(H, M), as End(H) =
    F_p; `_hook_generators` reads it off `pres`.  Maps between
    non-isomorphic hooks lie in the radical, so the chosen generators embed
    the hook sum as a direct summand, which is all of M when the
    multiplicities fill β0 at every p.  Every summand of a hook sum is born
    at a β0 degree and dies at a β1 degree or ∞, so a p that falls short
    proves M is not hook-decomposable.  The pairing ranks are true
    multiplicities, so they cannot fill β0 on a module of pd 2, which is no
    hook sum: the answer is None even without the β2 gate that `classify`
    applies before calling.  The chosen generators, in `Hook.sort_key`
    order, are the columns of the certificate's basis, whose Smith form is
    checked on `pres` (`_check_smith_form`); no grid is built.
    """
    deaths = sorted(set(pres.rels))
    need = Counter(pres.gens)
    peeled = []
    for birth in sorted(need):
        found = 0
        for q in [q for q in deaths if leq(birth, q) and q != birth] + [(INF, INF)]:
            hook = Hook(birth, q)
            vs = _hook_generators(pres, hook)
            peeled.extend((hook, v) for v in vs)
            found += len(vs)
            if found >= need[birth]:
                break
        if found > need[birth]:
            raise InvariantViolation(f"{found} hooks born at {birth} exceed β0 = {need[birth]}")
        if found < need[birth]:
            return None
    peeled.sort(key=lambda hv: hv[0].sort_key())
    basis = np.array([v for _, v in peeled], dtype=np.int64).reshape(len(peeled), pres.n_gens).T
    cert = HookCertificate(tuple(h for h, _ in peeled), Matrix(pres.p, basis))
    _check_smith_form(pres, cert)
    return cert


def verify_certificate(pres: Presentation, cert: HookCertificate) -> bool:
    """Check a certificate against a presentation from scratch, on the grid.

    Independent of the Smith check in `peel_hooks`: rebuilds the stable grid
    of the compressed minimal presentation, maps the hook corners onto its
    axes (False if one is off them), checks that the basis is legal with one
    row per generator and one column per hook, and propagates each column
    from its hook's birth.  They define an isomorphism from the hook sum
    exactly when each image vanishes at its hook's death and, at every grid
    point, the images of the hooks supported there form a basis.
    """
    cpres, axes = compress(minimize(pres))
    grid, box = stable_grid(cpres)
    local = {expand((a, b), axes): (a, b) for a in range(len(axes[0])) for b in range(len(axes[1]))}
    local[(INF, INF)] = (INF, INF)
    if any(h.p not in local or h.q not in local for h in cert.hooks):
        return False
    hooks = [Hook(local[h.p], local[h.q]) for h in cert.hooks]
    basis, p = cert.basis, pres.p
    if basis.p != p or basis.shape != (cpres.n_gens, len(hooks)):
        return False
    if basis.a[~legal_mask(cpres.gens, [h.p for h in hooks])].any():
        return False  # `grid_coordinates` would drop the entry
    images = [_propagate(grid, h.p, grid_coordinates(cpres, h.p, v)) for h, v in zip(hooks, basis.a.T)]
    if any(not h.is_free and w[h.q].any() for h, w in zip(hooks, images)):
        return False
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            rows = [w[(a, b)] for h, w in zip(hooks, images) if h.supports((a, b))]
            if len(rows) != grid.dim(a, b) or rank(Matrix(p, rows)) != len(rows):
                return False
    return True


def _image_subgrid(M: GridModule, e: dict):
    """Image of an idempotent endomorphism, given by its components, with
    its induced maps."""
    p = M.p
    bx, by = M.box
    basis = {}
    dims = np.zeros((bx + 1, by + 1), dtype=np.int64)
    for a in range(bx + 1):
        for b in range(by + 1):
            m = e[(a, b)]
            piv = rref(m).pivots  # pivot columns of m are a column-space basis
            sel = m.a[:, list(piv)] if piv else np.zeros((m.rows, 0), dtype=np.int64)
            basis[(a, b)] = Matrix(p, sel)
            dims[a, b] = sel.shape[1]

    def induced(src, dst, m):
        x = solve_matrix(basis[dst], m @ basis[src])
        if x is None:
            raise InvariantViolation("idempotent image is not a submodule")
        return x

    hmaps = [[induced((a, b), (a + 1, b), M.hmap(a, b)) for b in range(by + 1)] for a in range(bx)]
    vmaps = [[induced((a, b), (a, b + 1), M.vmap(a, b)) for b in range(by)] for a in range(bx + 1)]
    return GridModule(p, M.box, dims, hmaps, vmaps, check=False)


def _find_nontrivial_idempotent(M: GridModule, basis):
    """Components of the first nonzero, non-identity idempotent
    endomorphism in coefficient lexicographic order, or None if only
    trivial idempotents exist."""
    p = M.p
    dim = len(basis)
    points = [
        (a, b)
        for a in range(M.box[0] + 1)
        for b in range(M.box[1] + 1)
        if M.dim(a, b) > 0
    ]
    stacks = {
        pt: np.stack([t[pt].a for t in basis]).reshape(dim, -1) for pt in points
    }
    eyes = {pt: np.eye(M.dim(*pt), dtype=np.int64) for pt in points}

    coeff_iter = itertools.product(range(p), repeat=dim)
    next(coeff_iter)  # drop the zero endomorphism
    while True:
        rows = list(itertools.islice(coeff_iter, _IDEMPOTENT_CHUNK))
        if not rows:
            return None
        c = np.asarray(rows, dtype=np.int64)
        ok = np.ones(len(rows), dtype=bool)
        is_id = np.ones(len(rows), dtype=bool)
        for pt in points:
            n = M.dim(*pt)
            e = (c @ stacks[pt]).reshape(-1, n, n) % p
            sq = np.einsum("kij,kjl->kil", e, e) % p
            ok &= (sq == e).all(axis=(1, 2))
            is_id &= (e == eyes[pt]).all(axis=(1, 2))
            if not ok.any():
                break
        hits = np.nonzero(ok & ~is_id)[0]
        if hits.size:
            coeffs = rows[int(hits[0])]
            # Every point of the box, so empty fibres get 0 × 0 components.
            return {pt: Matrix(p, sum(c * t[pt].a for c, t in zip(coeffs, basis))) for pt in basis[0]}


def decompose_oracle(M: GridModule):
    """Indecomposable summands by exhaustive idempotent splitting.

    Enumerates all p^dim elements of the endomorphism algebra, splits along
    the first nontrivial idempotent found, and recurses; a module admitting
    only trivial idempotents is indecomposable.  The summand multiset is
    unique up to isomorphism and order (Krull-Schmidt holds for these
    finite-dimensional grid representations; relied on when comparing
    multisets).  Refuses instances with more than 2^16 endomorphisms to
    enumerate; shrink the instance instead.
    """
    if M.is_zero:
        return []
    basis = hom_basis(M, M)
    if M.p ** len(basis) > _ORACLE_CAP:
        raise ThresholdExceeded(
            f"{M.p}^{len(basis)} endomorphisms exceed the oracle cap of 2^16"
        )
    if len(basis) == 1:
        return [M]
    e = _find_nontrivial_idempotent(M, basis)
    if e is None:
        return [M]
    one_minus = {pt: Matrix(M.p, np.eye(m.rows, dtype=np.int64) - m.a) for pt, m in e.items()}
    out = []
    for part in (_image_subgrid(M, e), _image_subgrid(M, one_minus)):
        out.extend(decompose_oracle(part))
    return out
