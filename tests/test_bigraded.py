import pytest

from bipers.bigraded import (
    INF,
    Bar,
    GridModule,
    Hook,
    Presentation,
    classification_box,
    compress,
    direct_sum,
    expand,
    frontier_is_stable,
    hilbert_function,
    minimize,
    stable_grid,
    to_grid,
    validate,
)
from bipers.errors import BoxTooSmall, IllegalEntry, InvariantViolation, NonPrimeModulus
from bipers.generators import RandomSpec, free_module, gallery, hook_module, random_module
from bipers.linalg import Matrix


def box_points(box):
    return [(a, b) for a in range(box[0] + 1) for b in range(box[1] + 1)]


# ---------------------------------------------------------------- bigrades


def test_order_with_infinity():
    from bipers.bigraded import leq

    assert leq((1, 2), (1, 2))
    assert leq((0, 5), (INF, 5))
    assert not leq((INF, 0), (3, 0))
    assert leq((INF, INF), (INF, INF))


def test_bar_validation():
    Bar(0, 1)
    Bar(2, INF)
    with pytest.raises(ValueError):
        Bar(1, 1)
    with pytest.raises(ValueError):
        Bar(3, 2)


def test_hook_normalization_and_support():
    # One infinite death coordinate already means the full quadrant.
    h = Hook((1, 2), (5, INF))
    assert h.q == (INF, INF) and h.is_free
    strip = Hook((1, 0), (3, 0))
    assert strip.supports((1, 0)) and strip.supports((2, 4))
    assert not strip.supports((3, 0)) and not strip.supports((4, 1))
    with pytest.raises(ValueError):
        Hook((1, 1), (1, 1))
    with pytest.raises(ValueError):
        Hook((2, 0), (1, 1))


# ------------------------------------------------------------- validation


def test_validate_accepts_hook_presentation():
    pres = Presentation(2, [(0, 0)], [(1, 1)], Matrix(2, [[1]]))
    assert validate(pres) is pres


def test_validate_rejects_illegal_entry():
    with pytest.raises(IllegalEntry):
        validate(Presentation(2, [(2, 0)], [(1, 1)], Matrix(2, [[1]])))


def test_validate_accepts_zero_module():
    pres = Presentation(2, [], [])
    assert validate(pres) is pres


def test_non_prime_modulus_rejected():
    with pytest.raises(NonPrimeModulus):
        Presentation(6, [(0, 0)], [])


# --------------------------------------------------------------- compress


def test_compress_ranks_coordinates_and_expand_maps_back():
    pres = Presentation(3, [(0, 5), (40, 5)], [(40, 9)], [[1], [2]])
    cpres, axes = compress(pres)
    assert axes == ((0, 40), (5, 9))
    assert cpres.gens == ((0, 0), (1, 0)) and cpres.rels == ((1, 1),)
    assert cpres.coeffs == pres.coeffs
    assert [expand(d, axes) for d in cpres.gens + cpres.rels] == list(pres.gens + pres.rels)
    assert expand((INF, INF), axes) == (INF, INF)


# --------------------------------------------------------------- minimize


def test_minimize_unit_relation_cancels_generator():
    out = minimize(Presentation(2, [(0, 0)], [(0, 0)], Matrix(2, [[1]])))
    assert out.n_gens == 0 and out.n_rels == 0


def test_minimize_leaves_minimal_presentations_alone():
    pres = gallery("pd1-not-hook")
    assert minimize(pres) == pres
    hook = hook_module(Hook((2, 1), (4, 4)))
    assert minimize(hook) == hook


def test_minimize_gaussian_cancellation():
    # Two generators at (0,0) glued by a unit relation leave one generator.
    pres = Presentation(2, [(0, 0), (0, 0)], [(0, 0)], Matrix(2, [[1], [1]]))
    out = minimize(pres)
    assert out.gens == ((0, 0),) and out.rels == ()
    for d in box_points((2, 2)):
        assert hilbert_function(pres, d) == hilbert_function(out, d)


def test_minimize_drops_redundant_and_zero_columns():
    # Second column is x times the first; third is zero.
    pres = Presentation(2, [(0, 0)], [(1, 0), (2, 0), (3, 3)], Matrix(2, [[1, 1, 0]]))
    out = minimize(pres)
    assert out.rels == ((1, 0),)


@pytest.mark.parametrize("seed", range(25))
def test_minimize_preserves_hilbert_and_is_idempotent(seed):
    pres = random_module(RandomSpec("arbitrary", seed=seed))
    out = minimize(pres)
    box = classification_box(pres)
    for d in box_points(box):
        assert hilbert_function(pres, d) == hilbert_function(out, d)
    assert minimize(out) == out


# ---------------------------------------------------------------- to_grid


def test_grid_free_module_all_identity():
    grid = to_grid(free_module([(0, 0)]), (2, 2))
    assert grid.dims.tolist() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    for a in range(2):
        for b in range(3):
            assert grid.hmap(a, b) == Matrix.identity(2, 1)


def test_grid_hook_support():
    grid = to_grid(hook_module(Hook((0, 0), (1, 1))), (2, 2))
    expected = [[1, 1, 1], [1, 0, 0], [1, 0, 0]]  # indexed dims[a][b]
    assert grid.dims.tolist() == expected


def test_grid_remark2_dims():
    grid = to_grid(gallery("pd1-not-hook"), (2, 2))
    dims = grid.dims
    assert dims[0, 0] == 0
    for a, b in box_points((2, 2)):
        if (a, b) != (0, 0):
            assert dims[a, b] == 1, (a, b)


def test_grid_box_too_small():
    with pytest.raises(BoxTooSmall):
        to_grid(hook_module(Hook((0, 0), (3, 1))), (2, 2))


@pytest.mark.parametrize("box", [(-5, 3), (3, -2), (-1, -1)])
def test_grid_negative_box_is_too_small(box):
    # Even the zero module, whose degrees fit any box, needs the point (0, 0).
    for pres in (Presentation(2, [], []), gallery("hook-not-free")):
        with pytest.raises(BoxTooSmall):
            to_grid(pres, box)


def test_grid_commutativity_is_checked():
    p = 2
    dims = [[1, 1], [1, 1]]
    good_h = [[Matrix.identity(p, 1), Matrix.identity(p, 1)]]
    bad_v = [[Matrix.identity(p, 1)], [Matrix.zeros(p, 1, 1)]]
    with pytest.raises(ValueError):
        GridModule(p, (1, 1), dims, good_h, bad_v)


# ------------------------------------------------------- hilbert function


def test_hilbert_free_generator():
    assert hilbert_function(free_module([(0, 0)]), (5, 7)) == 1


def test_hilbert_hook_support_formula():
    pres = hook_module(Hook((0, 0), (2, 1)))
    assert hilbert_function(pres, (3, 0)) == 1
    assert hilbert_function(pres, (2, 1)) == 0
    assert hilbert_function(pres, (1, 5)) == 1


def test_hilbert_remark2_at_corner():
    assert hilbert_function(gallery("pd1-not-hook"), (1, 1)) == 1


@pytest.mark.parametrize("seed", range(25))
def test_hilbert_agrees_with_grid(seed):
    pres = random_module(RandomSpec("arbitrary", seed=100 + seed))
    grid, box = stable_grid(pres)
    for a, b in box_points(box):
        assert grid.dim(a, b) == hilbert_function(pres, (a, b))


@pytest.mark.parametrize("seed", range(15))
def test_frontier_stability(seed):
    pres = random_module(RandomSpec("arbitrary", seed=200 + seed))
    grid = to_grid(pres, classification_box(pres))
    assert frontier_is_stable(grid)



def test_unstable_frontier_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr("bipers.bigraded.frontier_is_stable", lambda grid: False)
    with pytest.raises(InvariantViolation):
        stable_grid(gallery("hook-not-free"))

@pytest.mark.parametrize("seed", range(10))
def test_grid_squares_commute(seed):
    pres = random_module(RandomSpec("arbitrary", seed=250 + seed))
    grid = to_grid(pres, classification_box(pres))
    grid._check()  # shape and commutativity invariants


def test_hook_support_matches_hilbert_everywhere():
    hooks = [
        Hook((0, 0), (1, 1)),
        Hook((1, 2), (3, 4)),
        Hook((2, 0), (INF, INF)),
        Hook((1, 0), (3, 0)),
        Hook((0, 2), (0, 5)),
    ]
    for h in hooks:
        pres = hook_module(h)
        box = classification_box(pres)
        for d in box_points(box):
            assert hilbert_function(pres, d) == (1 if h.supports(d) else 0), (h, d)


def test_direct_sum_adds_hilbert():
    a = hook_module(Hook((0, 0), (2, 2)))
    b = free_module([(1, 1)])
    s = direct_sum(a, b)
    for d in box_points((3, 3)):
        assert hilbert_function(s, d) == hilbert_function(a, d) + hilbert_function(b, d)
