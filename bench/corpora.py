"""Seeded `.bpm` corpora for the benchmark workloads, with ground truth.

Every case is built from a known decomposition, so the expected verdict,
Betti table and projective dimension follow from the construction and not
from the code under test.  The program only ever sees the `.bpm` text.

Workloads:

* ``hook-sums`` (p = 2): scrambled hook sums drawn with
  ``RandomSpec("hook_sum_scrambled", max_hooks=5, max_degree=8)``,
  alternating with ``gamma_product`` draws as in acceptance criterion 4.
  This is the accept path of the hook decomposition.
* ``glued`` (p = 3): a scrambled sum of one or two hooks and one glued pair
  (two incomparable generators joined by one relation with nonzero
  coefficients).  The pair is indecomposable and not a hook, so by
  Krull-Schmidt the sum is not hook-decomposable: the search must run to
  exhaustion.  Every 20th case is one of three fixed bare glued pairs at
  p = 101 or 1009, where the search cost grows with p.
* ``staircases`` (p = 2): scrambled sums of one to three shifted monomial
  quotients S/I, padded with redundant relations and cancelling unit
  generator/relation pairs.  At least one summand has two or more corners,
  so every module has projective dimension 2 and the decomposition exits
  at the second-syzygy test.

Each case has two random sources.  Its *shape* (the hook multiset, the
glued pair's degrees, the staircase corners and padding degrees) is drawn
from a fixed stream per workload, the same for every seed.  The seed draws
its *presentation*: the degree-respecting change of basis that hides the
direct-sum structure and the glued relation's coefficients.  Every seed
therefore measures the same isomorphism types in the same order, so the
figures of two seeds differ by how the program copes with the basis, not
by which sizes the draw happened to hit: per-module cost spans two orders
of magnitude (10 ms to 1.5 s on glued), and drawing the shapes from the
seed moved the median by 13% from seed to seed on its own.

The number of summands follows a fixed cycle along the shape stream: 1 to
5 hooks on hook-sums, 1, 2, 2 hooks on glued and 1 to 3 quotients on
staircases (a hook draw is repeated until it has the slot's number of
hooks), so every prefix of a corpus has about the same mix of sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from bipers.bigraded import INF, Bar, Hook, Presentation, direct_sum, join
from bipers.cli import presentation_to_bpm
from bipers.generators import (
    RandomSpec,
    SplitMix64,
    _scramble,
    gamma_product,
    hook_module,
    random_hook_summands,
)

# Distinct streams per workload, so one seed never reuses another's draws.
_STREAM = {"hook-sums": 0x5EED0001, "glued": 0x5EED0002, "staircases": 0x5EED0003}
# XORed into a workload's stream for its fixed shape stream.
_SHAPES = 0x5A4E5A4E00000000


@dataclass(frozen=True)
class Case:
    """One benchmark input and what classifying it must report."""

    text: str
    hooks: tuple | None  # sorted (p, q) pairs, or None: not hook-decomposable
    betti: tuple  # (beta0, beta1, beta2), each a sorted tuple of degrees
    pd: int


def _hook_sum_case(pres: Presentation, hooks) -> Case:
    hooks = sorted((h.p, h.q) for h in hooks)
    beta0 = tuple(sorted(p for p, _ in hooks))
    beta1 = tuple(sorted(q for _, q in hooks if q != (INF, INF)))
    pd = 0 if not beta1 else 1
    return Case(presentation_to_bpm(pres), tuple(hooks), (beta0, beta1, ()), pd)


def _gamma_draw(rng: SplitMix64, count: int, p: int):
    """`count` bar pairs drawn as in acceptance criterion 4, and their hooks."""
    pairs, hooks = [], []
    for _ in range(count):
        b1 = rng.below(8)
        d1 = INF if rng.below(4) == 0 else b1 + 1 + rng.below(8 - b1)
        b2 = rng.below(8)
        d2 = INF if rng.below(4) == 0 else b2 + 1 + rng.below(8 - b2)
        pairs.append((Bar(b1, d1), Bar(b2, d2)))
        hooks.append(Hook((b1, b2), (d1, d2)))
    return gamma_product(pairs, p), hooks


def _hook_draw(rng: SplitMix64, count: int, max_hooks: int, max_degree: int) -> RandomSpec:
    """The first RandomSpec on the stream whose draw has `count` hooks."""
    while True:
        spec = RandomSpec(
            "hook_sum_scrambled", max_hooks=max_hooks, max_degree=max_degree, seed=rng.next_u64()
        )
        if len(random_hook_summands(spec)) == count:
            return spec


def hook_sum_case(shape: SplitMix64, rng: SplitMix64, index: int) -> Case:
    count = 1 + (index // 2) % 5
    if index % 2:
        pres, hooks = _gamma_draw(shape, count, 2)
    else:
        hooks = random_hook_summands(_hook_draw(shape, count, 5, 8))
        pres = direct_sum(*[hook_module(h, 2) for h in hooks])
    return _hook_sum_case(_scramble(pres, rng), hooks)


def glued_pair(p: int, g1, g2, c1: int = 1, c2: int = -1) -> Presentation:
    """Incomparable generators g1, g2 and one relation c1*g1 + c2*g2 at their join."""
    return Presentation(p, [g1, g2], [join(g1, g2)], [[c1 % p], [c2 % p]])


def random_glued_pair(shape: SplitMix64, rng: SplitMix64, p: int, max_degree: int) -> Presentation:
    """A glued pair with degrees drawn from `shape`, coefficients from `rng`."""
    x1, x2 = sorted(shape.shuffle(list(range(max_degree + 1)))[:2])
    y2, y1 = sorted(shape.shuffle(list(range(max_degree + 1)))[:2])
    return glued_pair(p, (x1, y1), (x2, y2), 1 + rng.below(p - 1), 1 + rng.below(p - 1))


# The same in every corpus: their cost depends on p and the box alone.
FIXED_PAIRS = (
    glued_pair(101, (0, 2), (2, 0)),
    glued_pair(101, (1, 3), (3, 1)),
    glued_pair(1009, (0, 1), (1, 0)),
)


def glued_case(shape: SplitMix64, rng: SplitMix64, index: int) -> Case:
    if index % 20 == 10:
        pair = FIXED_PAIRS[(index // 20) % len(FIXED_PAIRS)]
        return Case(presentation_to_bpm(pair), None, (pair.gens, pair.rels, ()), 1)
    p = 3
    hooks = random_hook_summands(_hook_draw(shape, (1, 2, 2)[index % 3], 2, 6))
    pair = random_glued_pair(shape, rng, p, 6)
    pres = _scramble(direct_sum(*[hook_module(h, p) for h in hooks], pair), rng)
    beta0 = tuple(sorted([h.p for h in hooks] + list(pair.gens)))
    beta1 = tuple(sorted([h.q for h in hooks if not h.is_free] + list(pair.rels)))
    return Case(presentation_to_bpm(pres), None, (beta0, beta1, ()), 1)


def staircase(rng: SplitMix64, min_corners: int, max_coord: int = 15, max_shift: int = 3):
    """Shifted S/I for a monomial ideal I with 1-5 corners.

    Returns (shift, corners) with corners sorted by increasing x and hence
    strictly decreasing y.
    """
    k = min_corners + rng.below(6 - min_corners)
    xs = sorted(rng.shuffle(list(range(max_coord + 1)))[:k])
    ys = sorted(rng.shuffle(list(range(max_coord + 1)))[:k], reverse=True)
    if k == 1 and xs[0] == ys[0] == 0:
        xs[0] = 1  # the unit ideal would leave the zero module
    g = (rng.below(max_shift + 1), rng.below(max_shift + 1))
    corners = [(g[0] + x, g[1] + y) for x, y in zip(xs, ys)]
    return g, corners


def staircase_case(shape: SplitMix64, rng: SplitMix64, index: int) -> Case:
    p = 2
    parts = [staircase(shape, 2 if i == 0 else 1) for i in range(1 + index % 3)]
    gens, rels, entries = [], [], []  # entries: (gen index, rel index)
    beta0, beta1, beta2 = [], [], []
    for g, corners in parts:
        gi = len(gens)
        gens.append(g)
        beta0.append(g)
        for c in corners:
            entries.append((gi, len(rels)))
            rels.append(c)
            beta1.append(c)
        beta2.extend(join(a, b) for a, b in zip(corners, corners[1:]))
        # Redundant relation: a monomial multiple of one corner.
        c = corners[shape.below(len(corners))]
        du, dv = shape.below(3), 1 + shape.below(2)
        if shape.below(2):
            du, dv = dv, du
        entries.append((gi, len(rels)))
        rels.append((c[0] + du, c[1] + dv))
    # Cancelling unit pairs: a generator h at d and a relation at d equal to
    # h plus a combination of real generators below d; h occurs nowhere else.
    for _ in range(1 + shape.below(2)):
        d = (shape.below(21), shape.below(21))
        below = [i for i, g in enumerate(gens[: len(parts)]) if g[0] <= d[0] and g[1] <= d[1]]
        h = len(gens)
        gens.append(d)
        entries.append((h, len(rels)))
        for i in below:
            if rng.below(2):
                entries.append((i, len(rels)))
        rels.append(d)
    coeffs = [[0] * len(rels) for _ in gens]
    for i, j in entries:
        coeffs[i][j] = 1
    pres = _scramble(Presentation(p, gens, rels, coeffs), rng)
    betti = tuple(tuple(sorted(b)) for b in (beta0, beta1, beta2))
    return Case(presentation_to_bpm(pres), None, betti, 2)


_BUILDERS = {"hook-sums": hook_sum_case, "glued": glued_case, "staircases": staircase_case}
WORKLOADS = tuple(_BUILDERS)


def corpus(workload: str, seed: int, size: int) -> list:
    """The first `size` cases of a workload's stream; deterministic in seed.

    Shapes come from the workload's fixed stream, presentations from the
    seed's stream (see the module docstring).
    """
    build = _BUILDERS[workload]
    shape = SplitMix64(_STREAM[workload] ^ _SHAPES)
    rng = SplitMix64(seed * 0x100000001 + _STREAM[workload])
    return [build(shape, rng, i) for i in range(size)]
