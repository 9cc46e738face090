import itertools
import math
import time

import pytest

from bipers.bigraded import (
    Hook,
    Presentation,
    classification_box,
    direct_sum,
    hilbert_function,
    leq,
    minimize,
    stable_grid,
    to_grid,
)
from bipers.classify import classify
from bipers.errors import InvariantViolation
from bipers.generators import RandomSpec, free_module, gallery, hook_module, random_module
from bipers.linalg import Matrix
from bipers.resolution import (
    BettiTable,
    Resolution,
    _minimal_betti,
    betti_table,
    grid_betti,
    hilbert_from_betti,
    minimal_free_resolution,
    syzygy_presentation,
    verify_exactness,
)


def brute_syzygy_degrees(pres, box):
    """Independent oracle: minimal kernel generators by degreewise vector
    enumeration over F_p, no echelon machinery."""
    p = pres.p
    points = sorted(
        [(a, b) for a in range(box[0] + 1) for b in range(box[1] + 1)],
        key=lambda d: (d[0] + d[1], d[0]),
    )
    kernel_at = {}
    for d in points:
        gi = [i for i, g in enumerate(pres.gens) if leq(g, d)]
        rj = [j for j, r in enumerate(pres.rels) if leq(r, d)]
        vecs = []
        for tup in itertools.product(range(p), repeat=len(rj)):
            image = [0] * len(gi)
            for pos, j in enumerate(rj):
                for row, i in enumerate(gi):
                    image[row] = (image[row] + tup[pos] * int(pres.coeffs.a[i, j])) % p
            if not any(image):
                full = [0] * pres.n_rels
                for pos, j in enumerate(rj):
                    full[j] = tup[pos]
                vecs.append(tuple(full))
        kernel_at[d] = set(vecs)
    zero = tuple([0] * pres.n_rels)
    degrees = []
    for d in points:
        reach = set()
        for prev in ((d[0] - 1, d[1]), (d[0], d[1] - 1)):
            if prev in kernel_at:
                reach |= kernel_at[prev]
        # Additive closure = F_p span (c*v is v added c times); stays inside
        # the kernel at d, which is tiny.
        span = {zero}
        frontier = [zero]
        while frontier:
            w = frontier.pop()
            for v in reach:
                s = tuple((wi + vi) % p for wi, vi in zip(w, v))
                if s not in span:
                    span.add(s)
                    frontier.append(s)
        dim_k = round(math.log(len(kernel_at[d]), p)) if kernel_at[d] else 0
        dim_s = round(math.log(len(span), p))
        degrees.extend([d] * (dim_k - dim_s))
    return sorted(degrees)


# ------------------------------------------------------------ betti table


def test_betti_free_module():
    bt = betti_table(free_module([(0, 0), (2, 3)]))
    assert bt.beta0 == ((0, 0), (2, 3))
    assert bt.beta1 == () and bt.beta2 == ()


def test_betti_hook():
    bt = betti_table(hook_module(Hook((0, 0), (1, 1))))
    assert bt.beta0 == ((0, 0),)
    assert bt.beta1 == ((1, 1),)
    assert bt.beta2 == ()


def test_betti_of_an_unminimized_module_at_a_large_degree():
    # A redundant second relation: the grid route sees it and cancels it.
    d = 10**6
    pres = Presentation(2, [(0, 0)], [(d, 1), (d, 3)], [[1, 1]])
    assert betti_table(pres) == BettiTable(((0, 0),), ((d, 1),), ())


def test_betti_koszul_point_against_enumeration_oracle():
    pres = gallery("koszul-point")
    assert brute_syzygy_degrees(minimize(pres), classification_box(pres)) == [(1, 1)]
    bt = betti_table(pres)
    assert bt.beta0 == ((0, 0),)
    assert bt.beta1 == ((0, 1), (1, 0))
    assert bt.beta2 == ((1, 1),)


# ---------------------------------------------------------------- syzygies


def test_syzygy_of_free_module_empty():
    syz = syzygy_presentation(free_module([(0, 0), (1, 2)]))
    assert syz.n_rels == 0


def test_syzygy_of_hook_empty():
    syz = syzygy_presentation(hook_module(Hook((0, 0), (1, 1))))
    assert syz.n_rels == 0


def test_syzygy_koszul_single_generator():
    syz = syzygy_presentation(gallery("koszul-point"))
    assert syz.rels == ((1, 1),)
    # The kernel generator combines both relations (y, x up to sign).
    assert syz.coeffs.a.tolist() == [[1], [1]]


@pytest.mark.parametrize("seed", range(40))
def test_syzygy_matches_enumeration_oracle(seed):
    pres = minimize(random_module(RandomSpec("arbitrary", max_gens=3, max_rels=3, max_degree=3, seed=300 + seed)))
    box = classification_box(pres)
    assert sorted(syzygy_presentation(pres).rels) == brute_syzygy_degrees(pres, box)


# -------------------------------------------------------------- resolution


def test_resolution_of_bounded_hook():
    res = minimal_free_resolution(hook_module(Hook((1, 0), (2, 2))))
    assert res.gens0 == ((1, 0),)
    assert res.gens1 == ((2, 2),)
    assert res.gens2 == ()
    assert res.d1.a.tolist() == [[1]]


def test_resolution_of_free_hook():
    res = minimal_free_resolution(hook_module(Hook((0, 1), (float("inf"), float("inf")))))
    assert res.gens0 == ((0, 1),) and res.gens1 == () and res.gens2 == ()


def test_resolution_koszul_shape():
    res = minimal_free_resolution(gallery("koszul-point"))
    assert res.gens0 == ((0, 0),)
    assert sorted(res.gens1) == [(0, 1), (1, 0)]
    assert res.gens2 == ((1, 1),)
    assert (res.d1 @ res.d2).is_zero
    assert verify_exactness(res)


def test_resolution_rejects_nonzero_composition():
    with pytest.raises(ValueError):
        Resolution(2, [(0, 0)], [(1, 0)], [(1, 1)], Matrix(2, [[1]]), Matrix(2, [[1]]))


def test_resolution_rejects_illegal_level1_entry():
    # (0, 1) is not ≤ (1, 0): no monomial carries the second generator there.
    with pytest.raises(ValueError, match=r"illegal map entry at \(1, 0\)"):
        Resolution(2, [(0, 0), (0, 1)], [(1, 0)], [], Matrix(2, [[1], [1]]), Matrix.zeros(2, 1, 0))


# --------------------------------------------------------------- exactness


def test_exactness_of_hook_resolution():
    res = minimal_free_resolution(hook_module(Hook((0, 0), (2, 1))))
    assert verify_exactness(res)


def test_exactness_fails_with_zeroed_level2():
    res = minimal_free_resolution(gallery("koszul-point"))
    broken = Resolution(2, res.gens0, res.gens1, res.gens2, res.d1, Matrix.zeros(2, 2, 1))
    assert not verify_exactness(broken)


def test_exactness_remark2_without_level2():
    res = minimal_free_resolution(gallery("pd1-not-hook"))
    assert res.gens2 == ()
    assert verify_exactness(res)


@pytest.mark.parametrize("seed", range(30))
def test_exactness_always_holds_for_minimal_resolutions(seed):
    pres = random_module(RandomSpec("arbitrary", seed=400 + seed))
    assert verify_exactness(minimal_free_resolution(pres))


D = 10**6


@pytest.mark.parametrize(
    "pres, beta2",
    [
        (Presentation(2, [(0, 0)], [(D, 1)], [[1]]), ()),
        (Presentation(2, [(0, 0)], [(D, 0), (0, D)], [[1, 1]]), ((D, D),)),
    ],
    ids=["hook", "koszul-point"],
)
def test_resolution_at_a_large_degree(pres, beta2):
    # Syzygies and exactness follow the number of distinct degrees.
    t = time.perf_counter()
    res = minimal_free_resolution(pres)
    assert verify_exactness(res)
    assert time.perf_counter() - t < 0.1
    assert res.betti() == BettiTable(pres.gens, tuple(sorted(pres.rels)), beta2)


def _koszul_point(p, g, dx, dy):
    return Presentation(p, [g], [(g[0] + dx, g[1]), (g[0], g[1] + dy)], [[1, 1]])


@pytest.mark.parametrize("p", [2, 3])
def test_compressed_syzygies_match_the_full_box(p):
    # The full-box syzygy route stays the reference for the level-2 map,
    # columns in order.  In the pair, β2 at (1, 10) precedes (6, 1) on the
    # compressed grid but follows it on the full one.
    modules = [direct_sum(_koszul_point(p, (0, 0), 1, 10), _koszul_point(p, (5, 0), 1, 1))]
    for seed in range(50):
        pres = random_module(RandomSpec("arbitrary", max_degree=2, seed=seed), p=p)
        stretch = lambda degrees: [(10 * x + 3, y) for x, y in degrees]
        modules.append(Presentation(p, stretch(pres.gens), stretch(pres.rels), pres.coeffs))
    for k, module in enumerate(modules):
        full = syzygy_presentation(minimize(module))
        res = minimal_free_resolution(module)
        assert (res.gens2, res.d2) == (full.rels, full.coeffs), k


# ------------------------------------------------- projective dimension


def test_pd_of_free_module():
    assert classify(free_module([(1, 1)])).projective_dimension == 0
    assert classify(Presentation(2, [], [])).projective_dimension == 0


@pytest.mark.parametrize("p", [2, 3])
def test_pd_rank_rule_matches_the_syzygy_route(p):
    # classify's pd (β2 by Möbius inversion, its total asserted equal to
    # n_rels − rank C) against the level-2 generators of the explicit
    # resolution.
    seen = set()
    for seed in range(150):
        pres = random_module(RandomSpec("arbitrary", max_gens=3, max_rels=6, max_degree=3, seed=2600 + seed), p=p)
        res = minimal_free_resolution(pres)
        expected = 0 if not res.gens1 else (2 if res.gens2 != () else 1)
        assert classify(pres).projective_dimension == expected, seed
        seen.add(expected)
    assert seen == {0, 1, 2}


# ------------------------------------------------------------- invariants


@pytest.mark.parametrize("seed", range(30))
def test_betti_paths_agree(seed):
    pres = random_module(RandomSpec("arbitrary", seed=500 + seed))
    bt = betti_table(pres)
    m = minimize(pres)
    assert bt.beta0 == tuple(sorted(m.gens))
    assert bt.beta1 == tuple(sorted(m.rels))
    assert bt.beta2 == tuple(sorted(syzygy_presentation(m).rels))


@pytest.mark.parametrize("seed", range(30))
def test_betti_of_the_minimized_grid_matches_the_input_route(seed):
    # classify reads the table off the minimal presentation's smaller grid.
    pres = random_module(RandomSpec("arbitrary", seed=700 + seed))
    assert grid_betti(stable_grid(minimize(pres))[0]) == betti_table(pres)


def test_grid_betti_rejects_a_contribution_on_the_frontier():
    pres = gallery("hook-not-free")  # β1 at (1, 1), the corner of this box
    with pytest.raises(InvariantViolation, match="frontier"):
        grid_betti(to_grid(pres, (1, 1)))


HOOK = Presentation(2, [(0, 0)], [(1, 1)], [[1]])  # box (2, 2)


def test_minimal_betti_of_a_hook():
    dims = [[1, 1, 1], [1, 0, 0], [1, 0, 0]]
    assert _minimal_betti(HOOK, dims) == BettiTable(((0, 0),), ((1, 1),), ())


def test_minimal_betti_rejects_a_negative_beta2():
    dims = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]  # Möbius inversion −1 at (2, 1)
    with pytest.raises(InvariantViolation, match="negative"):
        _minimal_betti(HOOK, dims)


def test_minimal_betti_rejects_beta2_on_the_frontier():
    dims = [[1, 1], [1, 2]]  # a free generator at (0, 0); β2 = 1 at (1, 1)
    with pytest.raises(InvariantViolation, match="frontier"):
        _minimal_betti(free_module([(0, 0)]), dims)


def test_minimal_betti_rejects_beta2_disagreeing_with_the_rank():
    dims = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]  # β2 = 1 at (1, 1), but rank C = 1 = n_rels
    with pytest.raises(InvariantViolation, match="ker C has rank 0"):
        _minimal_betti(HOOK, dims)


@pytest.mark.parametrize("seed", range(30))
def test_hilbert_series_identity(seed):
    pres = random_module(RandomSpec("arbitrary", seed=600 + seed))
    bt = betti_table(pres)
    box = classification_box(pres)
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            assert hilbert_from_betti(bt, (a, b)) == hilbert_function(pres, (a, b))
