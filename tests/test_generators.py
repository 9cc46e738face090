import hashlib

import pytest

from bipers.bigraded import INF, Bar, Hook, Presentation, classification_box, direct_sum, hilbert_function
from bipers.classify import check_implications, classify
from bipers.decomposition import decompose_oracle
from bipers.cli import presentation_to_bpm
from bipers.errors import UnknownName
from bipers.generators import (
    RandomSpec,
    SplitMix64,
    _scramble,
    free_module,
    gallery,
    gallery_names,
    gamma_product,
    hook_module,
    random_hook_summands,
    random_module,
)

def test_free_module_shapes():
    assert free_module([(0, 0)]).gens == ((0, 0),)
    zero = free_module([])
    assert zero.n_gens == 0
    rank2 = free_module([(1, 2), (1, 2)])
    assert hilbert_function(rank2, (1, 2)) == 2
    assert hilbert_function(rank2, (5, 5)) == 2
    assert hilbert_function(rank2, (0, 2)) == 0


def test_hook_module_remark1():
    pres = hook_module(Hook((0, 0), (1, 1)))
    assert pres == gallery("hook-not-free")


def test_hook_module_free_case():
    assert hook_module(Hook((0, 0), (INF, INF))) == free_module([(0, 0)])


def test_hook_module_strip():
    pres = hook_module(Hook((1, 0), (3, 0)))
    box = classification_box(pres)
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            expect = 1 if (a >= 1 and a < 3) else 0
            assert hilbert_function(pres, (a, b)) == expect


def test_gamma_product_free_bars():
    pres = gamma_product([(Bar(0, INF), Bar(0, INF))])
    assert pres == free_module([(0, 0)])


def test_gamma_product_unit_bars():
    pres = gamma_product([(Bar(0, 1), Bar(0, 1))])
    assert pres == gallery("hook-not-free")


def test_gamma_product_mixed_round_trip():
    pres = gamma_product([(Bar(0, 2), Bar(1, 3)), (Bar(1, INF), Bar(0, INF))])
    cert = classify(pres).certificate
    assert cert is not None
    assert sorted((h.p, h.q) for h in cert.hooks) == [((0, 1), (2, 3)), ((1, 0), (INF, INF))]


@pytest.mark.parametrize("seed", range(10))
def test_gamma_product_always_hook_decomposable(seed):
    rng = SplitMix64(seed)
    pairs = []
    for _ in range(1 + rng.below(4)):
        b1 = rng.below(4)
        d1 = INF if rng.below(3) == 0 else b1 + 1 + rng.below(4)
        b2 = rng.below(4)
        d2 = INF if rng.below(3) == 0 else b2 + 1 + rng.below(4)
        pairs.append((Bar(b1, d1), Bar(b2, d2)))
    pres = gamma_product(pairs)
    rep = classify(pres)
    assert rep.hook_decomposable and rep.gamma_product
    assert rep.projective_dimension <= 1


def test_gallery_names_and_unknown():
    names = gallery_names()
    for required in ("hook-not-free", "pd1-not-hook", "koszul-point", "staircase-free-pair"):
        assert required in names
    with pytest.raises(UnknownName):
        gallery("no-such-module")


def test_gallery_f3_variant_keeps_minus_sign():
    pres = gallery("pd1-not-hook-f3")
    assert pres.p == 3
    assert pres.coeffs.a.tolist() == [[1], [2]]  # -1 mod 3


def test_gallery_pd1_not_hook_is_indecomposable():
    from bipers.bigraded import stable_grid

    grid, _ = stable_grid(gallery("pd1-not-hook"))
    assert len(decompose_oracle(grid)) == 1


def test_splitmix64_reference_values():
    # First outputs for seed 0 of the standard splitmix64 sequence.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


@pytest.mark.parametrize("seed", [2**64 - 3, 0, 12345])
def test_block_draws_match_single_draws(seed):
    # From 2**64 - 3 the counter wraps past 2**64 inside the block.
    block, single = SplitMix64(seed), SplitMix64(seed)
    draws = block.peek(8)
    assert block.state == single.state  # peek consumes nothing
    assert draws == [single.next_u64() for _ in range(8)]
    block.skip(8)
    assert block.state == single.state
    assert block.peek(0) == []
    assert SplitMix64(seed).below(1009) == SplitMix64(seed).next_u64() % 1009


def test_random_module_deterministic_in_seed():
    spec = RandomSpec("arbitrary", seed=123)
    assert random_module(spec) == random_module(spec)
    spec2 = RandomSpec("hook_sum_scrambled", seed=123)
    assert random_module(spec2) == random_module(spec2)
    assert random_hook_summands(spec2) == random_hook_summands(spec2)


def test_random_free_modules_classify_free():
    for seed in range(5):
        pres = random_module(RandomSpec("free", seed=seed))
        rep = classify(pres)
        assert rep.free and rep.hook_decomposable and rep.projective_dimension == 0


@pytest.mark.parametrize("seed", range(10))
def test_scrambling_preserves_hilbert_and_verdicts(seed):
    spec = RandomSpec("hook_sum_scrambled", max_hooks=3, max_degree=5, seed=1300 + seed)
    hooks = random_hook_summands(spec)
    from bipers.bigraded import direct_sum

    plain = direct_sum(*[hook_module(h) for h in hooks])
    scrambled = random_module(spec)
    box = classification_box(plain)
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            assert hilbert_function(plain, (a, b)) == hilbert_function(scrambled, (a, b))
    rep_a, rep_b = classify(plain), classify(scrambled)
    assert (rep_a.free, rep_a.hook_decomposable, rep_a.projective_dimension) == (
        rep_b.free,
        rep_b.hook_decomposable,
        rep_b.projective_dimension,
    )


@pytest.mark.parametrize("seed", range(10))
def test_arbitrary_mode_obeys_implications(seed):
    pres = random_module(RandomSpec("arbitrary", seed=1400 + seed))
    assert check_implications(classify(pres))


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomSpec("nonsense")
    with pytest.raises(ValueError):
        RandomSpec("free", max_gens=0)


def _scramble_fixtures(p):
    """Sums that reach every draw path of `_scramble` at field p."""
    return [
        # Both pair lists non-empty.
        direct_sum(hook_module(Hook((0, 0), (2, 2)), p), hook_module(Hook((1, 1), (3, 3)), p),
                   hook_module(Hook((1, 0), (INF, INF)), p)),
        # No row pairs (incomparable generators): every op takes 3 draws.
        Presentation(p, [(0, 1), (1, 0)], [(1, 1), (2, 2)], [[1, 0], [p - 1, 1]]),
        # No column pairs (incomparable relations): an op takes 1 or 3 draws.
        Presentation(p, [(0, 0), (1, 1)], [(2, 3), (3, 2)], [[1, 0], [1, 1]]),
        # Neither: every op takes 1 draw.
        Presentation(p, [(0, 1), (1, 0)], [(0, 2), (2, 0)], [[1, 0], [0, 1]]),
        # n = 0 (relations with no terms), m = 0 (free), and n = m = 0.
        Presentation(p, [], [(1, 1), (2, 2), (0, 3)]),
        free_module([(0, 0), (1, 1), (0, 2), (2, 0)], p),
        Presentation(p, [], []),
    ]


def test_generated_streams_are_frozen():
    """One digest over seeded output: a seed must give the same text forever."""
    digest = hashlib.sha256()
    for mode in ("free", "arbitrary", "hook_sum_scrambled"):
        for p in (2, 3, 65521):
            for seed in range(100):
                spec = RandomSpec(mode, max_gens=5, max_rels=5, max_hooks=5, seed=seed)
                digest.update(presentation_to_bpm(random_module(spec, p)).encode())
    for p in (2, 3, 65521):
        for k, pres in enumerate(_scramble_fixtures(p)):
            for seed in range(20):
                rng = SplitMix64(1000 * k + seed)
                digest.update(presentation_to_bpm(_scramble(pres, rng)).encode())
                digest.update(b"%d\n" % rng.state)
    for length in range(12):
        for seed in range(10):
            rng = SplitMix64(seed)
            digest.update(repr(rng.shuffle(list(range(length)))).encode())
            digest.update(b"%d\n" % rng.state)
    assert digest.hexdigest() == "0c13963a0d323875ea490bad49aa8bd4dcd51d3f80efdb97ba341484892ca650"
