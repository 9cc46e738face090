"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every check is exact; the only tolerances are the time
budgets, which are asserted as hard limits.
"""

import time

from bipers.bigraded import (
    INF,
    Bar,
    Hook,
    classification_box,
    hilbert_function,
    minimize,
    stable_grid,
)
from bipers.classify import check_implications, classify
from bipers.decomposition import decompose_oracle, hook_profile
from bipers.errors import ThresholdExceeded
from bipers.generators import (
    RandomSpec,
    SplitMix64,
    gallery,
    gallery_names,
    gamma_product,
    hook_module,
    random_hook_summands,
    random_module,
)
from bipers.resolution import (
    betti_table,
    hilbert_from_betti,
    minimal_free_resolution,
    syzygy_presentation,
    verify_exactness,
)


def _report(num, desc, elapsed, budget):
    print(f"criterion {num}: PASS ({elapsed:.2f}s < {budget}s) {desc}")


def _pairs(hooks):
    return sorted((h.p, h.q) for h in hooks)


def test_criterion_1_remark1_classification():
    t0 = time.perf_counter()
    rep = classify(gallery("hook-not-free"))
    assert rep.hook_decomposable is True
    assert rep.free is False
    assert rep.projective_dimension == 1
    assert _pairs(rep.certificate.hooks) == [((0, 0), (1, 1))]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "hook-not-free: hook-decomposable, not free, pd 1, exact certificate", elapsed, 1)


def test_criterion_2_remark2_classification():
    t0 = time.perf_counter()
    pres = gallery("pd1-not-hook")
    rep = classify(pres)
    assert rep.projective_dimension == 1
    assert rep.hook_decomposable is False
    assert rep.free is False
    grid, _ = stable_grid(pres)
    assert len(decompose_oracle(grid)) == 1  # indecomposable
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "pd1-not-hook: pd 1, not hook-decomposable, indecomposable", elapsed, 1)


def test_criterion_3_hook_resolutions():
    t0 = time.perf_counter()
    rng = SplitMix64(2024)
    for _ in range(100):
        px, py = rng.below(7), rng.below(7)
        if rng.below(4) == 0:
            h = Hook((px, py), (INF, INF))
        else:
            dx, dy = rng.below(8 - px + 1), rng.below(8 - py + 1)
            if dx == 0 and dy == 0:
                dx = 1
            h = Hook((px, py), (px + dx, py + dy))
        res = minimal_free_resolution(hook_module(h))
        if h.is_free:
            assert res.gens0 == (h.p,) and res.gens1 == () and res.gens2 == ()
        else:
            assert res.gens0 == (h.p,) and res.gens1 == (h.q,) and res.gens2 == ()
            assert res.d1.a.tolist() == [[1]]
        assert verify_exactness(res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, "100 random hooks: closed-form resolutions, all exact", elapsed, 5)


def test_criterion_4_theorem_equivalence_on_products():
    t0 = time.perf_counter()
    rng = SplitMix64(31)
    checked = 0
    for seed in range(250):
        spec = RandomSpec("hook_sum_scrambled", max_hooks=5, max_degree=8, seed=seed)
        constructed = random_hook_summands(spec)
        pres = random_module(spec)
        rep = classify(pres)
        assert rep.hook_decomposable and rep.structure_theorem and rep.gamma_product
        assert _pairs(rep.certificate.hooks) == _pairs(constructed)
        checked += 1
    for _ in range(250):
        pairs = []
        constructed = []
        for _ in range(1 + rng.below(5)):
            b1 = rng.below(8)
            d1 = INF if rng.below(4) == 0 else b1 + 1 + rng.below(8 - b1)
            b2 = rng.below(8)
            d2 = INF if rng.below(4) == 0 else b2 + 1 + rng.below(8 - b2)
            pairs.append((Bar(b1, d1), Bar(b2, d2)))
            constructed.append(Hook((b1, b2), (d1, d2)))
        pres = gamma_product(pairs)
        rep = classify(pres)
        assert rep.hook_decomposable and rep.structure_theorem and rep.gamma_product
        assert _pairs(rep.certificate.hooks) == _pairs(constructed)
        checked += 1
    assert checked == 500
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(4, "500 product/scrambled-sum modules: equivalence and exact multiset recovery", elapsed, 120)


def test_criterion_5_implication_diagram():
    t0 = time.perf_counter()
    for seed in range(1000):
        pres = random_module(RandomSpec("arbitrary", max_gens=4, max_rels=4, max_degree=6, seed=seed))
        assert check_implications(classify(pres)), f"implication violated at seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, "1000 arbitrary presentations: implication diagram holds, zero violations", elapsed, 120)


def test_criterion_6_betti_oracle_agreement():
    t0 = time.perf_counter()
    corpus = [gallery(name) for name in gallery_names()]
    corpus += [
        random_module(RandomSpec("arbitrary", seed=3000 + s)) for s in range(200)
    ]
    for pres in corpus:
        bt = betti_table(pres)
        m = minimize(pres)
        assert bt.beta0 == tuple(sorted(m.gens))
        assert bt.beta1 == tuple(sorted(m.rels))
        assert bt.beta2 == tuple(sorted(syzygy_presentation(m).rels))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, "gallery + 200 randoms: grid-homology Betti equals the syzygy route", elapsed, 60)


def test_criterion_7_decomposition_oracle_agreement():
    t0 = time.perf_counter()
    done = 0
    seed = 0
    while done < 100:
        spec = RandomSpec("arbitrary", max_gens=3, max_rels=3, max_degree=3, seed=4000 + seed)
        seed += 1
        pres = random_module(spec)
        grid, _ = stable_grid(pres)
        try:
            summands = decompose_oracle(grid)
        except ThresholdExceeded:
            continue
        done += 1
        profiles = [hook_profile(s) for s in summands]
        cert = classify(pres).certificate
        oracle_verdict = all(pr is not None for pr in profiles)
        assert (cert is not None) == oracle_verdict
        if cert is not None:
            assert _pairs(cert.hooks) == sorted((pr.p, pr.q) for pr in profiles)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(7, "100 small modules: search verdict matches the idempotent-splitting oracle", elapsed, 300)


def test_criterion_8_hilbert_series_identity():
    t0 = time.perf_counter()
    corpus = [gallery(name) for name in gallery_names()]
    corpus += [random_module(RandomSpec("arbitrary", seed=5000 + s)) for s in range(150)]
    corpus += [
        random_module(RandomSpec("hook_sum_scrambled", max_hooks=4, max_degree=6, seed=5200 + s))
        for s in range(50)
    ]
    for pres in corpus:
        bt = betti_table(pres)
        box = classification_box(pres)
        for a in range(box[0] + 1):
            for b in range(box[1] + 1):
                assert hilbert_from_betti(bt, (a, b)) == hilbert_function(pres, (a, b))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "alternating Betti counts reproduce the Hilbert function exactly", elapsed, 60)


def test_criterion_9_koszul_point():
    t0 = time.perf_counter()
    pres = gallery("koszul-point")
    bt = betti_table(pres)
    assert bt.beta0 == ((0, 0),)
    assert bt.beta1 == ((0, 1), (1, 0))
    assert bt.beta2 == ((1, 1),)
    rep = classify(pres)
    assert rep.projective_dimension == 2
    assert rep.hook_decomposable is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(9, "koszul-point: exact Betti table, pd 2, not hook-decomposable", elapsed, 1)
