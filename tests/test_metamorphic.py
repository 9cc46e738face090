"""Metamorphic laws of `classify`, checked without any oracle.

The paper's classes are invariant under isomorphism and symmetric under
x↔y, and by Krull–Schmidt a direct sum is hook-decomposable exactly when
both parts are, with the hook multisets adding.  Graded Betti numbers add
over direct sums, so projective dimension is the maximum.  These laws check
both kinds of verdict at sizes the idempotent oracle cannot reach.
"""

import pytest

from bipers.bigraded import INF, Hook, Presentation, direct_sum
from bipers.classify import classify, verify_certificate
from bipers.generators import RandomSpec, SplitMix64, _scramble, gallery, gallery_names, hook_module, random_module
from bipers.resolution import BettiTable


def transpose(pres):
    swap = lambda degrees: [(y, x) for x, y in degrees]
    return Presentation(pres.p, swap(pres.gens), swap(pres.rels), pres.coeffs)


def hook_pairs(report):
    """Sorted (birth, death) corners of the certificate, or None."""
    return None if report.certificate is None else sorted((h.p, h.q) for h in report.certificate.hooks)


def verdicts(report):
    return (report.free, report.hook_decomposable, report.structure_theorem, report.gamma_product, report.projective_dimension)


def betti_sum(*tables):
    return BettiTable(*(tuple(sorted(d for t in tables for d in t.beta(i))) for i in range(3)))


def betti_transpose(table):
    return BettiTable(*(tuple(sorted((y, x) for x, y in table.beta(i))) for i in range(3)))


def _glued_pair(p, corner, dx, dy):
    """Staircase generators glued by one relation: pd 1, not a hook sum."""
    (a, b) = corner
    return Presentation(p, [(a, b + dy), (a + dx, b)], [(a + dx, b + dy)], [[1], [p - 1]])


def _koszul_point(p, corner, dx, dy):
    (a, b) = corner
    return Presentation(p, [(a, b)], [(a + dx, b), (a, b + dy)], [[1, 1]])


def _corpus(p):
    modules = [gallery(name) for name in gallery_names() if gallery(name).p == p]
    for corner, dx, dy in [((0, 0), 1, 2), ((2, 1), 3, 1), ((1, 3), 2, 2)]:
        modules += [_glued_pair(p, corner, dx, dy), _koszul_point(p, corner, dx, dy)]
    modules += [random_module(RandomSpec("arbitrary", max_gens=3, max_rels=5, max_degree=4, seed=7100 + s), p=p) for s in range(30)]
    modules += [random_module(RandomSpec("hook_sum_scrambled", max_hooks=4, max_degree=5, seed=7200 + s), p=p) for s in range(15)]
    return modules


CORPUS = {p: _corpus(p) for p in (2, 3)}


@pytest.mark.parametrize("p", [2, 3])
def test_transposition_transposes_the_report(p):
    for k, pres in enumerate(CORPUS[p]):
        rep, rep_t = classify(pres), classify(transpose(pres))
        assert verdicts(rep_t) == verdicts(rep), k
        assert rep_t.betti == betti_transpose(rep.betti), k
        assert rep_t.box == rep.box[::-1], k
        if rep.certificate is not None:
            flip = lambda d: d if d == (INF, INF) else d[::-1]
            assert hook_pairs(rep_t) == sorted((flip(b), flip(q)) for b, q in hook_pairs(rep)), k


@pytest.mark.parametrize("p", [2, 3])
def test_scramble_leaves_the_report_unchanged(p):
    for k, pres in enumerate(CORPUS[p]):
        rep, rep_s = classify(pres), classify(_scramble(pres, SplitMix64(7300 + k)))
        assert verdicts(rep_s) == verdicts(rep), k
        assert rep_s.betti == rep.betti, k
        assert hook_pairs(rep_s) == hook_pairs(rep), k


@pytest.mark.parametrize("p", [2, 3])
def test_direct_sum_is_additive(p):
    modules = CORPUS[p]
    seen = set()
    for k, (m, n) in enumerate(zip(modules, modules[1:] + modules[:1])):
        rep_m, rep_n = classify(m), classify(n)
        pres = _scramble(direct_sum(m, n), SplitMix64(7400 + k))
        rep = classify(pres)
        assert rep.hook_decomposable == (rep_m.hook_decomposable and rep_n.hook_decomposable), k
        assert rep.free == (rep_m.free and rep_n.free), k
        assert rep.projective_dimension == max(rep_m.projective_dimension, rep_n.projective_dimension), k
        assert rep.betti == betti_sum(rep_m.betti, rep_n.betti), k
        if rep.hook_decomposable:
            assert hook_pairs(rep) == sorted(hook_pairs(rep_m) + hook_pairs(rep_n)), k
            assert verify_certificate(pres, rep.certificate), k
        seen.add(rep.hook_decomposable)
    assert seen == {True, False}


GLUED_ABOVE = 40


def _random_hooks(n, rng, span):
    hooks = []
    for _ in range(n):
        birth = (rng.below(span), rng.below(span))
        death = (INF, INF) if rng.below(4) == 0 else (birth[0] + rng.below(span), birth[1] + rng.below(span))
        hooks.append(Hook(birth, death if death != birth else (birth[0] + 1, birth[1])))
    return hooks


def test_glued_pair_above_many_scrambled_hooks_is_rejected():
    # The peel accepts every hook before it reaches the glued pair, which
    # sits above them all; the verdict is still reject, with pd 1 and the
    # Betti table of the parts.
    p, n = 3, GLUED_ABOVE
    hooks = _random_hooks(n, SplitMix64(7500), 2 * n)
    top = 4 * n
    glued = Presentation(p, [(top, top + 1), (top + 1, top)], [(top + 1, top + 1)], [[1], [p - 1]])
    pres = _scramble(direct_sum(*[hook_module(h, p) for h in hooks], glued), SplitMix64(7501))
    rep = classify(pres)
    assert not rep.hook_decomposable and rep.certificate is None
    assert rep.projective_dimension == 1
    births = [h.p for h in hooks] + list(glued.gens)
    deaths = [h.q for h in hooks if not h.is_free] + list(glued.rels)
    assert rep.betti == BettiTable(tuple(sorted(births)), tuple(sorted(deaths)), ())
