import dataclasses
import json
import sys
import time
from collections import Counter

import pytest

import bipers.bigraded
import bipers.decomposition
import bipers.resolution
from bipers.bigraded import INF, Bar, Hook, Presentation, compress, direct_sum, hilbert_grid, leq, minimize, stable_grid
from bipers.classify import (
    ClassificationReport,
    check_implications,
    classify,
    report_to_dict,
    report_to_json,
    verify_certificate,
)
from bipers.decomposition import _check_smith_form, peel_hooks
from bipers.errors import InvariantViolation
from bipers.generators import RandomSpec, SplitMix64, _scramble, free_module, gallery, gallery_names, hook_module, random_module
from bipers.linalg import Matrix
from bipers.resolution import BettiTable, betti_table, grid_betti


def test_classify_remark1():
    rep = classify(gallery("hook-not-free"))
    assert rep.free is False
    assert rep.hook_decomposable is True
    assert rep.structure_theorem is True
    assert rep.gamma_product is True
    assert rep.projective_dimension == 1
    assert [(h.p, h.q) for h in rep.certificate.hooks] == [((0, 0), (1, 1))]


def test_classify_remark2():
    rep = classify(gallery("pd1-not-hook"))
    assert rep.free is False
    assert rep.hook_decomposable is False
    assert rep.projective_dimension == 1
    assert rep.certificate is None


def test_classify_koszul_point():
    rep = classify(gallery("koszul-point"))
    assert rep.free is False
    assert rep.hook_decomposable is False
    assert rep.projective_dimension == 2


def test_classify_zero_module():
    rep = classify(Presentation(2, [], []))
    assert rep.free and rep.hook_decomposable and rep.projective_dimension == 0
    assert rep.certificate is not None and rep.certificate.hooks == ()


def test_degrees_are_capped_at_int64():
    # Grid and legality code evaluate degrees as int64 arrays, so a larger
    # finite coordinate is refused where it is built, not by numpy later.
    big = 2**63
    for build in (
        lambda: Presentation(2, [(big, 0)], []),
        lambda: Presentation(2, [(0, 0)], [(0, big)], [[1]]),
        lambda: Hook((0, 0), (big, 1)),
        lambda: Bar(0, big),
    ):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            build()
    assert classify(Presentation(2, [(big - 1, 0)], [])).box == (big, 1)
    rep = classify(Presentation(2, [(0, 0)], [(big - 1, 1)], [[1]]))
    assert [(h.p, h.q) for h in rep.certificate.hooks] == [((0, 0), (big - 1, 1))]


def test_certificate_verifies_for_remark1():
    pres = gallery("hook-not-free")
    rep = classify(pres)
    assert verify_certificate(pres, rep.certificate)


def test_certificate_rejected_on_wrong_module():
    cert = classify(gallery("hook-not-free")).certificate
    assert not verify_certificate(gallery("koszul-point"), cert)


def test_hand_built_certificate_for_free_module():
    pres = free_module([(0, 0)])
    cert = classify(pres).certificate
    assert verify_certificate(pres, cert)


def test_smith_diagonal_presentation():
    rep = classify(gallery("remark2-hilbert-twin"))
    diag = rep.certificate.diagonal_presentation()
    assert diag.gens == ((0, 1), (1, 0))
    assert diag.rels == ((1, 1),)
    assert diag.coeffs.a.tolist() == [[1], [0]]


# ------------------------------------------------------------ one pass

# The staircase x²·g = xy·g = y²·g = 0 padded with a redundant relation at
# (2, 2) and a generator h at (1, 2) cancelled by the unit relation h + g.
PADDED_STAIRCASE = Presentation(
    2,
    [(0, 0), (1, 2)],
    [(0, 2), (1, 1), (2, 0), (2, 2), (1, 2)],
    [[1, 1, 1, 1, 1], [0, 0, 0, 0, 1]],
)


@pytest.mark.parametrize(
    "pres, pd",
    [(PADDED_STAIRCASE, 2), (gallery("koszul-point"), 2), (gallery("remark2-hilbert-twin"), 1)],
    ids=["padded-staircase", "koszul-point", "remark2-hilbert-twin"],
)
def test_classify_runs_one_pass(pres, pd, monkeypatch):
    originals = {
        "minimize": bipers.bigraded.minimize,
        "hilbert_grid": bipers.bigraded.hilbert_grid,
        "stable_grid": bipers.bigraded.stable_grid,
        "to_grid": bipers.bigraded.to_grid,
        "syzygy_presentation": bipers.resolution.syzygy_presentation,
        "hom_basis": bipers.decomposition.hom_basis,
        "_propagate": bipers.decomposition._propagate,
        "grid_betti": bipers.resolution.grid_betti,
    }
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Wrap every binding of these functions in every bipers module.
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "bipers" or mod_name.startswith("bipers."):
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counting(name, fn))
    report = classify(pres)
    assert report.projective_dimension == pd
    assert report.hook_decomposable == (pd == 1)
    assert calls == Counter(minimize=1, hilbert_grid=1)
    assert calls["stable_grid"] == calls["to_grid"] == calls["grid_betti"] == 0  # no grid is built


def test_padded_staircase_betti_table():
    bt = classify(PADDED_STAIRCASE).betti
    assert bt == BettiTable(((0, 0),), ((0, 2), (1, 1), (2, 0)), ((1, 2), (2, 1)))


# ----------------------------------------------------------- implications


def _report(free, hook, pd):
    return ClassificationReport(
        free=free,
        hook_decomposable=hook,
        structure_theorem=hook,
        gamma_product=hook,
        projective_dimension=pd,
        betti=BettiTable((), (), ()),
        certificate=None,
        field_modulus=2,
        box=(1, 1),
    )


def test_implications_consistent_report():
    assert check_implications(_report(True, True, 0))


def test_implications_free_requires_hook():
    rep = _report(True, False, 0)
    assert not check_implications(rep)


def test_implications_hook_requires_pd_le_1():
    rep = _report(False, True, 2)
    assert not check_implications(rep)


def test_implications_free_iff_pd_zero():
    assert not check_implications(_report(False, True, 0))
    assert not check_implications(_report(True, True, 1))


def test_implications_equivalence_of_three():
    rep = _report(False, True, 1)
    rep.gamma_product = False
    assert not check_implications(rep)


@pytest.mark.parametrize("seed", range(30))
def test_every_classification_obeys_the_diagram(seed):
    pres = random_module(RandomSpec("arbitrary", seed=1100 + seed))
    assert check_implications(classify(pres))


def test_converse_failure_witnesses():
    hook_not_free = classify(gallery("hook-not-free"))
    assert hook_not_free.hook_decomposable and not hook_not_free.free
    pd1_not_hook = classify(gallery("pd1-not-hook"))
    assert pd1_not_hook.projective_dimension <= 1 and not pd1_not_hook.hook_decomposable


# ------------------------------------------------------------ serialization


def test_report_json_shape():
    out = report_to_dict(classify(gallery("hook-not-free")))
    assert out["betti"] == {"0": [[0, 0, 1]], "1": [[1, 1, 1]], "2": []}
    assert out["certificate"]["hooks"] == [{"p": [0, 0], "q": [1, 1]}]
    assert out["projective_dimension"] == 1
    assert "timings" in out


def test_report_json_inf_encoding():
    out = report_to_dict(classify(free_module([(2, 3)])))
    assert out["certificate"]["hooks"] == [{"p": [2, 3], "q": ["inf", "inf"]}]


def test_classify_deterministic_json():
    pres = random_module(RandomSpec("hook_sum_scrambled", seed=5))
    a = report_to_json(classify(pres), include_timings=False)
    b = report_to_json(classify(pres), include_timings=False)
    assert a == b
    json.loads(a)  # valid JSON


# ---------------------------------------------------- compressed grid


@pytest.mark.parametrize("d", [10**6, 2**62 - 1], ids=["1e6", "2^62-1"])
def test_single_hook_at_a_large_degree(d):
    # The grid follows the number of distinct degrees, not their values.
    pres = Presentation(2, [(0, 0)], [(d, 1)], [[1]])
    t = time.perf_counter()
    rep = classify(pres)
    assert time.perf_counter() - t < 0.1
    assert [(h.p, h.q) for h in rep.certificate.hooks] == [((0, 0), (d, 1))]
    assert rep.box == (d + 1, 2)
    assert rep.betti.as_triples()[1] == [[d, 1, 1]]
    t = time.perf_counter()
    assert verify_certificate(pres, rep.certificate) is True
    assert time.perf_counter() - t < 0.1


def _stretched(pres):
    """The same module with every coordinate mapped through x ↦ 7x + 3."""
    f = lambda degrees: [(7 * x + 3, 7 * y + 3) for x, y in degrees]
    return Presentation(pres.p, f(pres.gens), f(pres.rels), pres.coeffs)


@pytest.mark.parametrize("stretch", [False, True], ids=["dense", "gapped"])
@pytest.mark.parametrize("p", [2, 3])
def test_compressed_classify_matches_the_full_grid(p, stretch):
    for seed in range(100):
        mpres = minimize(random_module(RandomSpec("arbitrary", max_degree=2, seed=seed), p=p))
        if stretch:
            mpres = _stretched(mpres)
        rep = classify(mpres)
        grid, _ = stable_grid(mpres)
        bt = grid_betti(grid)
        assert rep.betti == bt
        cert = peel_hooks(mpres)
        assert (cert is None) == (rep.certificate is None)
        if cert is not None:
            assert Counter(rep.certificate.hooks) == Counter(cert.hooks)


def _staircase(p, rng, steps):
    """One generator killed by a staircase of monomial relations, summed
    with a random hook and scrambled: pd 2, with β2 at the joins of
    consecutive steps."""
    xs = [3 * k + rng.below(3) for k in range(steps)]
    ys = [3 * (steps - k) + rng.below(3) for k in range(steps)]
    corner = (rng.below(3), rng.below(3))
    rels = [(corner[0] + x + 1, corner[1] + y + 1) for x, y in zip(xs, ys)]
    ideal = Presentation(p, [corner], rels, [[1 + rng.below(p - 1) for _ in rels]])
    birth = (rng.below(6), rng.below(6))
    hook = hook_module(Hook(birth, (birth[0] + 1 + rng.below(4), birth[1] + 1 + rng.below(4))), p)
    return _scramble(direct_sum(ideal, hook), rng)


def _betti_cross_check_corpus():
    modules = []
    for p in (2, 3, 65521):
        modules += [random_module(RandomSpec("arbitrary", max_gens=4, max_rels=5, seed=8800 + s), p=p) for s in range(50)]
        modules += [random_module(RandomSpec("hook_sum_scrambled", max_hooks=5, seed=8900 + s), p=p) for s in range(20)]
        rng = SplitMix64(9000 + p)
        modules += [_staircase(p, rng, 2 + rng.below(3)) for _ in range(10)]
    return modules


def test_classify_betti_matches_the_koszul_route():
    # classify's table (minimal degrees and Möbius inversion of the
    # minimal presentation's grid) against Koszul homology on the
    # unminimized input's grid.
    modules = _betti_cross_check_corpus()
    pds = Counter()
    for k, pres in enumerate(modules):
        rep = classify(pres)
        assert rep.betti == betti_table(pres), k
        pds[rep.projective_dimension] += 1
    assert len(modules) >= 200 and pds[2] >= 20, pds


def test_hilbert_grid_matches_the_stable_grid():
    # One rank per point against the bases of `to_grid`, on unminimized
    # inputs too, zero and free modules included.
    modules = []
    for p in (2, 3, 65521):
        modules += [Presentation(p, g.gens, g.rels, g.coeffs.a) for g in map(gallery, gallery_names())]
        modules += [random_module(RandomSpec("arbitrary", max_gens=4, max_rels=5, seed=9100 + s), p=p) for s in range(80)]
        modules += [random_module(RandomSpec("free", seed=9200 + s), p=p) for s in range(10)]
        modules += [random_module(RandomSpec("hook_sum_scrambled", max_hooks=6, seed=9300 + s), p=p) for s in range(50)]
        rng = SplitMix64(9400 + p)
        modules += [_staircase(p, rng, 2 + rng.below(3)) for _ in range(25)]
    t0 = time.perf_counter()
    for k, pres in enumerate(modules):
        assert (hilbert_grid(pres) == stable_grid(pres)[0].dims).all(), k
    assert len(modules) >= 500 and time.perf_counter() - t0 < 2.0
    assert any(m.n_gens == 0 for m in modules) and any(m.n_gens and not m.n_rels for m in modules)


def test_certificate_with_a_corner_off_the_axes_is_rejected():
    pres = gallery("hook-not-free")  # axes (0, 1) × (0, 1)
    cert = classify(pres).certificate
    moved = dataclasses.replace(cert, hooks=(Hook((0, 0), (2, 2)),))
    assert verify_certificate(pres, moved) is False


# ------------------------------------------------------------ broken certificates

SCRAMBLED_TRIPLE = _scramble(
    direct_sum(*[hook_module(h, 3) for h in (Hook((0, 0), (2, 1)), Hook((1, 1), (3, 3)), Hook((1, 0), (INF, INF)))]),
    SplitMix64(31),
)


def _compressed_certificate(pres):
    """The certificate of `pres` before its hooks are mapped back."""
    cpres, axes = compress(minimize(pres))
    return cpres, axes, peel_hooks(cpres)


@pytest.mark.parametrize("pres", [gallery("remark2-hilbert-twin"), SCRAMBLED_TRIPLE], ids=["twin", "scrambled-triple"])
@pytest.mark.parametrize("entry", ["singular", "illegal"])
def test_a_broken_basis_is_rejected_by_both_checks(pres, entry):
    cpres, axes, cert = _compressed_certificate(pres)
    births = [h.p for h in cert.hooks]
    basis = cert.basis.a.copy()
    if entry == "singular":
        # Every birth carries one generator, so its 1 × 1 block is the entry.
        i, k = next((i, k) for k, b in enumerate(births) for i, g in enumerate(cpres.gens) if g == b)
        assert cpres.gens.count(births[k]) == 1 and basis[i, k]
        basis[i, k] = 0
    else:
        # A generator not born by the hook's birth; the grid has no
        # coordinate for it there.
        i, k = next((i, k) for k, b in enumerate(births) for i, g in enumerate(cpres.gens) if not leq(g, b))
        basis[i, k] = 1
    broken = dataclasses.replace(cert, basis=Matrix(cpres.p, basis))
    _check_smith_form(cpres, cert)
    assert verify_certificate(pres, cert.expand(axes)) is True
    with pytest.raises(InvariantViolation):
        _check_smith_form(cpres, broken)
    assert verify_certificate(pres, broken.expand(axes)) is False


def test_a_certificate_is_rejected_after_one_coefficient_changes():
    pres = gallery("remark2-hilbert-twin")  # gens (0, 1), (1, 0); C = [[1], [0]]
    _, axes, cert = _compressed_certificate(pres)
    glued = Presentation(pres.p, pres.gens, pres.rels, [[1], [1]])  # pd1-not-hook
    assert minimize(glued) == glued and compress(glued) == (glued, axes)
    assert not classify(glued).hook_decomposable
    with pytest.raises(InvariantViolation):
        _check_smith_form(glued, cert)
    assert verify_certificate(glued, cert.expand(axes)) is False


def test_a_certificate_with_an_early_death_is_rejected():
    # x·y²·g = 0 claimed as the strip x·g = 0, with the same basis P = [1].
    pres = Presentation(2, [(0, 0)], [(1, 2)], [[1]])
    cpres, axes, cert = _compressed_certificate(pres)
    early = dataclasses.replace(cert, hooks=(Hook((0, 0), (1, 0)),))
    with pytest.raises(InvariantViolation):
        _check_smith_form(cpres, early)
    assert verify_certificate(pres, early.expand(axes)) is False
