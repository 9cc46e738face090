import time

import numpy as np
import pytest

from bipers.bigraded import (
    INF,
    Hook,
    Presentation,
    classification_box,
    compress,
    direct_sum,
    hilbert_function,
    leq,
    minimize,
    stable_grid,
    to_grid,
)
from bipers.classify import classify, verify_certificate
from bipers.decomposition import (
    decompose_oracle,
    hom_basis,
    hook_profile,
    peel_hooks,
    _hook_generators,
)
from bipers.errors import ThresholdExceeded
from bipers.generators import (
    RandomSpec,
    SplitMix64,
    _scramble,
    free_module,
    gallery,
    gallery_names,
    hook_module,
    random_hook_summands,
    random_module,
)
from bipers.linalg import Matrix, kernel_basis, rank
from bipers.resolution import grid_betti


def hooks_as_pairs(hooks):
    return sorted((h.p, h.q) for h in hooks)


# ---------------------------------------------------------------- hom spaces


def is_natural(M, N, t):
    """True when the components t = {grid point: Matrix} of a map M → N
    commute with every horizontal and vertical structure map."""
    bx, by = M.box
    for a in range(bx + 1):
        for b in range(by + 1):
            if a < bx and t[(a + 1, b)] @ M.hmap(a, b) != N.hmap(a, b) @ t[(a, b)]:
                return False
            if b < by and t[(a, b + 1)] @ M.vmap(a, b) != N.vmap(a, b) @ t[(a, b)]:
                return False
    return True


def test_endomorphisms_of_free_point_are_scalars():
    g = to_grid(free_module([(0, 0)]), (2, 2))
    basis = hom_basis(g, g)
    assert len(basis) == 1
    assert is_natural(g, g, basis[0])


def test_no_map_from_hook_to_free():
    # Any map must kill the generator: its image would die at (1,1), but
    # multiplication is injective on the free target.
    hgrid = to_grid(hook_module(Hook((0, 0), (1, 1))), (2, 2))
    fgrid = to_grid(free_module([(0, 0)]), (2, 2))
    assert hom_basis(hgrid, fgrid) == []


def test_remark2_has_endomorphisms():
    g, _ = stable_grid(gallery("pd1-not-hook"))
    basis = hom_basis(g, g)
    assert len(basis) >= 1
    for t in basis:
        assert is_natural(g, g, t)


# -------------------------------------------------------------- hook profile


def test_profile_of_hook_grid():
    grid = to_grid(hook_module(Hook((1, 0), (2, 2))), (3, 3))
    assert hook_profile(grid) == Hook((1, 0), (2, 2))


def test_profile_of_free_hook_grid():
    grid = to_grid(hook_module(Hook((2, 1), (INF, INF))), (4, 4))
    assert hook_profile(grid) == Hook((2, 1), (INF, INF))


def test_profile_rejects_staircase_support():
    grid, _ = stable_grid(gallery("pd1-not-hook"))
    assert hook_profile(grid) is None


def test_profile_rejects_dimension_two():
    grid, _ = stable_grid(free_module([(0, 0), (0, 0)]))
    assert hook_profile(grid) is None


def test_profile_rejects_zero_module():
    grid, _ = stable_grid(Presentation(2, [], []))
    assert hook_profile(grid) is None


# ----------------------------------------------------------- hook decompose


def test_remark1_module_decomposes():
    cert = classify(gallery("hook-not-free")).certificate
    assert cert is not None
    assert hooks_as_pairs(cert.hooks) == [((0, 0), (1, 1))]
    assert verify_certificate(gallery("hook-not-free"), cert)


def test_remark2_module_does_not_decompose():
    assert classify(gallery("pd1-not-hook")).certificate is None
    assert classify(gallery("pd1-not-hook-f3")).certificate is None


def test_free_module_decomposes_into_free_hooks():
    cert = classify(free_module([(0, 0), (2, 3)])).certificate
    assert cert is not None
    assert hooks_as_pairs(cert.hooks) == [((0, 0), (INF, INF)), ((2, 3), (INF, INF))]


def test_zero_module_decomposes_as_empty_sum():
    cert = classify(Presentation(2, [], [])).certificate
    assert cert is not None and cert.hooks == ()


def test_koszul_point_does_not_decompose():
    assert classify(gallery("koszul-point")).certificate is None


def test_hilbert_twin_regression():
    # Same Hilbert function on the box as pd1-not-hook, but this one is a
    # genuine hook sum; the retraction test is what separates the two.
    twin = gallery("remark2-hilbert-twin")
    other = gallery("pd1-not-hook")
    box = classification_box(other)
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            assert hilbert_function(twin, (a, b)) == hilbert_function(other, (a, b))
    cert = classify(twin).certificate
    assert cert is not None
    assert hooks_as_pairs(cert.hooks) == [((0, 1), (1, 1)), ((1, 0), (INF, INF))]
    assert classify(other).certificate is None


@pytest.mark.parametrize("seed", range(20))
def test_scramble_recovery_round_trip(seed):
    spec = RandomSpec("hook_sum_scrambled", max_hooks=4, max_degree=6, seed=700 + seed)
    constructed = random_hook_summands(spec)
    pres = random_module(spec)
    cert = classify(pres).certificate
    assert cert is not None
    assert hooks_as_pairs(cert.hooks) == hooks_as_pairs(constructed)
    assert verify_certificate(pres, cert)


def test_explicit_scrambled_pair_of_hooks():
    pres = direct_sum(hook_module(Hook((0, 0), (2, 1))), hook_module(Hook((1, 1), (3, 3))))
    # Degree-legal change of basis by hand: add gen0 into gen1, mix columns.
    c = pres.coeffs.a.copy()
    c[0] = (c[0] + c[1]) % 2  # p0 <= p1: row op adding gen1 row into gen0 row
    scrambled = Presentation(2, pres.gens, pres.rels, Matrix(2, c))
    cert = classify(scrambled).certificate
    assert cert is not None
    assert hooks_as_pairs(cert.hooks) == [((0, 0), (2, 1)), ((1, 1), (3, 3))]


@pytest.mark.parametrize("seed", range(20))
def test_certificate_hilbert_conservation(seed):
    spec = RandomSpec("hook_sum_scrambled", max_hooks=4, max_degree=5, seed=800 + seed)
    pres = random_module(spec)
    cert = classify(pres).certificate
    assert cert is not None
    box = classification_box(pres)
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            total = sum(1 for h in cert.hooks if h.supports((a, b)))
            assert total == hilbert_function(pres, (a, b))



def test_pd1_not_hook_rejected_over_large_field():
    pres = Presentation(65521, [(0, 1), (1, 0)], [(1, 1)], [[1], [65520]])
    assert classify(pres).certificate is None


LARGE_FIELD_SPECS = [RandomSpec("hook_sum_scrambled", max_hooks=5, max_degree=8, seed=900 + k) for k in range(3)]


@pytest.mark.parametrize(
    "spec, p",
    [(spec, 65521) for spec in LARGE_FIELD_SPECS]
    + [(RandomSpec("hook_sum_scrambled", max_hooks=12, max_degree=16, seed=3), 2)],
)
def test_hook_sums_beyond_exhaustive_search(spec, p):
    pres = random_module(spec, p=p)
    cert = classify(pres).certificate
    assert cert is not None
    assert hooks_as_pairs(cert.hooks) == hooks_as_pairs(random_hook_summands(spec))
    assert verify_certificate(pres, cert)


def _structure_maps_from(grid, alpha):
    """{β: matrix of M(α) → M(β)} for every β ≥ α in the box."""
    maps = {}
    for a in range(alpha[0], grid.box[0] + 1):
        for b in range(alpha[1], grid.box[1] + 1):
            if (a, b) == alpha:
                maps[(a, b)] = Matrix.identity(grid.p, grid.dim(a, b))
            elif a > alpha[0]:
                maps[(a, b)] = grid.hmap(a - 1, b) @ maps[(a - 1, b)]
            else:
                maps[(a, b)] = grid.vmap(a, b - 1) @ maps[(a, b - 1)]
    return maps


@pytest.mark.parametrize("spec", LARGE_FIELD_SPECS)
def test_certificate_matches_rank_invariant_over_large_field(spec):
    # Hook rank functions are linearly independent, so the rank invariant of
    # M pins its hook multiset.  Checked on the unminimized input, without
    # the peel or the oracle (which cannot run at this p).
    pres = random_module(spec, p=65521)
    hooks = classify(pres).certificate.hooks
    grid = to_grid(pres, classification_box(pres))
    bx, by = grid.box
    for alpha in [(a, b) for a in range(bx + 1) for b in range(by + 1)]:
        for beta, m in _structure_maps_from(grid, alpha).items():
            expected = sum(1 for h in hooks if h.supports(alpha) and h.supports(beta))
            assert rank(m) == expected, (alpha, beta)


NESTED_HOOKS = [
    Hook((0, 0), (1, 1)),
    Hook((0, 0), (1, 1)),
    Hook((0, 0), (2, 1)),
    Hook((0, 0), (3, 3)),
    Hook((0, 0), (INF, INF)),
    Hook((0, 0), (INF, INF)),
    Hook((1, 0), (2, 2)),
]


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_hook_multiplicities_above_one_at_one_birth(p):
    pres = _scramble(direct_sum(*[hook_module(h, p) for h in NESTED_HOOKS]), SplitMix64(1000 + p))
    cert = classify(pres).certificate
    assert cert is not None
    assert hooks_as_pairs(cert.hooks) == hooks_as_pairs(NESTED_HOOKS)
    assert verify_certificate(pres, cert)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_glued_pair_beside_hooks_is_rejected(p):
    glued = gallery("pd1-not-hook")
    glued = Presentation(p, glued.gens, glued.rels, Matrix(p, glued.coeffs.a))
    parts = [glued, hook_module(Hook((0, 1), (2, 2)), p), hook_module(Hook((1, 0), (INF, INF)), p)]
    pres = _scramble(direct_sum(*parts), SplitMix64(2000 + p))
    assert classify(pres).certificate is None
    rep = classify(pres)
    assert rep.projective_dimension == 1
    assert not rep.hook_decomposable and rep.certificate is None


def test_peel_hooks_rejects_nonzero_beta2():
    mpres = minimize(gallery("koszul-point"))
    grid, _ = stable_grid(mpres)
    assert grid_betti(grid).beta2
    assert peel_hooks(mpres) is None


def _pairing_rank_on_grid(grid, hook):
    """Rank of t, v ↦ t_p(v) between Hom(M, H) and ker(M(p) → M(q)),
    both solved on the grid."""
    birth = hook.p
    if hook.is_free:
        vs = list(np.eye(grid.dim(*birth), dtype=np.int64))
    else:
        vs = kernel_basis(_structure_maps_from(grid, birth)[hook.q])
    ts = hom_basis(grid, to_grid(hook_module(hook, grid.p), grid.box))
    if not vs or not ts:
        return 0
    return rank(Matrix(grid.p, np.vstack([t[birth].a for t in ts]) @ np.column_stack(vs)))


@pytest.mark.parametrize("p", [2, 3])
def test_hook_counts_on_presentation_match_grid_pairing(p):
    # The grid route stays as the reference: for every candidate hook of the
    # peel, the vectors read off the minimal presentation are as many as the
    # rank of the pairing solved on the grid.
    checked = 0
    for seed in range(100):
        mpres = minimize(random_module(RandomSpec("arbitrary", max_gens=4, max_rels=4, max_degree=4, seed=seed), p=p))
        grid, _ = stable_grid(mpres)
        bt = grid_betti(grid)
        for birth in sorted(set(bt.beta0)):
            deaths = [q for q in sorted(set(bt.beta1)) if leq(birth, q) and q != birth]
            for q in deaths + [(INF, INF)]:
                hook = Hook(birth, q)
                assert len(_hook_generators(mpres, hook)) == _pairing_rank_on_grid(grid, hook), (seed, hook)
                checked += 1
    assert checked > 100


# ------------------------------------------------------------------- oracle


def test_oracle_on_single_hook():
    grid, _ = stable_grid(hook_module(Hook((0, 0), (2, 2))))
    summands = decompose_oracle(grid)
    assert len(summands) == 1


def test_oracle_splits_two_hooks():
    pres = direct_sum(hook_module(Hook((0, 0), (2, 1))), hook_module(Hook((1, 1), (3, 3))))
    grid, _ = stable_grid(pres)
    summands = decompose_oracle(grid)
    assert len(summands) == 2
    got = sorted((hook_profile(s).p, hook_profile(s).q) for s in summands)
    assert got == [((0, 0), (2, 1)), ((1, 1), (3, 3))]


def test_oracle_remark2_indecomposable():
    grid, _ = stable_grid(gallery("pd1-not-hook"))
    assert len(decompose_oracle(grid)) == 1


def test_oracle_summands_survive_compression():
    # `bipers decompose --oracle` runs on the compressed grid; compression
    # keeps the module up to relabelling, so the summand count must match.
    mods = [gallery(name) for name in gallery_names()]
    mods += [random_module(RandomSpec("arbitrary", max_gens=4, max_rels=4, seed=s), p=p) for p in (2, 3) for s in range(30)]
    for pres in mods:
        full = decompose_oracle(stable_grid(pres)[0])
        assert len(decompose_oracle(stable_grid(compress(pres)[0])[0])) == len(full)


def test_oracle_threshold():
    grid, _ = stable_grid(free_module([(0, 0)] * 5))
    with pytest.raises(ThresholdExceeded):
        decompose_oracle(grid)


def test_oracle_cap_counts_endomorphisms():
    # The cap is on p^dim, the number of endomorphisms enumerated: End dim
    # 16 is allowed at p = 2 and refused at p = 3.
    assert len(decompose_oracle(stable_grid(free_module([(0, 0)] * 4))[0])) == 4
    with pytest.raises(ThresholdExceeded):
        decompose_oracle(stable_grid(Presentation(3, [(0, 0)] * 4, []))[0])


@pytest.mark.parametrize("seed", [16, 23, 35])
def test_oracle_refuses_small_endomorphism_algebras_at_large_p(seed):
    # End dim 12, 10 and 4: each far above 2^16 endomorphisms at p = 65521.
    pres = random_module(RandomSpec("arbitrary", max_gens=5, max_rels=5, seed=seed), p=65521)
    grid, _ = stable_grid(compress(pres)[0])
    t0 = time.perf_counter()
    with pytest.raises(ThresholdExceeded):
        decompose_oracle(grid)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("seed", range(15))
def test_oracle_agrees_with_hook_decompose(seed):
    spec = RandomSpec("arbitrary", max_gens=3, max_rels=3, max_degree=3, seed=900 + seed)
    pres = random_module(spec)
    grid, _ = stable_grid(pres)
    try:
        summands = decompose_oracle(grid)
    except ThresholdExceeded:
        pytest.skip("endomorphism algebra above oracle threshold")
    profiles = [hook_profile(s) for s in summands]
    cert = classify(pres).certificate
    assert (cert is not None) == all(pr is not None for pr in profiles)
    if cert is not None:
        assert hooks_as_pairs(cert.hooks) == sorted((pr.p, pr.q) for pr in profiles)


def test_oracle_summands_preserve_total_dimension():
    spec = RandomSpec("hook_sum_scrambled", max_hooks=3, max_degree=4, seed=42)
    pres = random_module(spec)
    grid, _ = stable_grid(pres)
    summands = decompose_oracle(grid)
    total = sum(s.dims for s in summands)
    assert (total == grid.dims).all()
