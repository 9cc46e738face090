"""Constructors for class representatives and seeded random modules.

The gallery collects small fixed modules witnessing every region of the
classification (free, hook-decomposable but not free, projective dimension
1 but not hook-decomposable, projective dimension 2).  Random generation is
deterministic in the seed and uses a fixed splitmix64 stream so corpora are
reproducible across platforms.  The stream is frozen: a seed gives the same
`.bpm` text on every version, and draws taken as one block (`peek`) are the
same values, in the same order, that single draws would give.
`tests/test_generators.py` pins a digest of the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigraded import (
    DEFAULT_FIELD,
    INF,
    Bar,
    Hook,
    Presentation,
    direct_sum,
    leq,
    validate,
)
from .errors import InvalidSpec, UnknownName
from .linalg import Matrix

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 pseudo-random stream; fixed algorithm for reproducibility.

    The stream is a counter: draw t (from 1) mixes ``state + t·γ``, so a
    block of upcoming draws can be computed at once (`peek`) and then
    consumed (`skip`) without changing any later draw.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        return self.below(1 << 64)  # every output is below 2**64

    def below(self, n: int) -> int:
        """Uniform-ish value in [0, n); modulo bias is irrelevant here."""
        self.state = z = (self.state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) % n

    def peek(self, k: int) -> list:
        """The next k outputs of `next_u64` as ints, without consuming them."""
        z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return (z ^ (z >> np.uint64(31))).tolist()

    def skip(self, k: int) -> None:
        """Consume k draws without computing them."""
        self.state = (self.state + k * _GAMMA) & _MASK64

    def shuffle(self, items: list) -> list:
        s = self.state
        for i in range(len(items) - 1, 0, -1):
            s = (s + _GAMMA) & _MASK64
            z = ((s ^ (s >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            j = (z ^ (z >> 31)) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self.state = s
        return items


@dataclass(frozen=True)
class RandomSpec:
    """Bounds and seed for random module generation."""

    mode: str
    max_gens: int = 4
    max_rels: int = 4
    max_degree: int = 6
    max_hooks: int = 4
    seed: int = 0

    _MODES = ("arbitrary", "free", "hook_sum_scrambled")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise InvalidSpec(f"mode must be one of {self._MODES}, got {self.mode!r}")
        if min(self.max_gens, self.max_rels, self.max_degree, self.max_hooks) < 1:
            raise InvalidSpec("all bounds must be positive")


def free_module(births, p=DEFAULT_FIELD) -> Presentation:
    """Free module with one generator per birth degree and no relations."""
    return Presentation(p, list(births), [])


def hook_module(h: Hook, p=DEFAULT_FIELD) -> Presentation:
    """One generator at h.p; for a finite death corner, one monomial relation at h.q."""
    if h.is_free:
        return Presentation(p, [h.p], [])
    return Presentation(p, [h.p], [h.q], Matrix(p, [[1]]))


def gamma_product(pairs, p=DEFAULT_FIELD) -> Presentation:
    """Biparameter module built from pairs of monoparameter bars.

    Each pair ([b1, d1), [b2, d2)) contributes the hook with birth corner
    (b1, b2) and death corner (d1, d2); any infinite death coordinate gives
    a free summand by the usual corner normalization.  The result is always
    hook-decomposable.
    """
    summands = []
    for bar1, bar2 in pairs:
        if not isinstance(bar1, Bar):
            bar1 = Bar(*bar1)
        if not isinstance(bar2, Bar):
            bar2 = Bar(*bar2)
        summands.append(hook_module(Hook((bar1.birth, bar2.birth), (bar1.death, bar2.death)), p))
    if not summands:
        return Presentation(p, [], [])
    return direct_sum(*summands)


def _remark_pair(p, minus_one):
    return Presentation(p, [(0, 1), (1, 0)], [(1, 1)], Matrix(p, [[1], [minus_one]]))


_GALLERY = {
    # The zero module: free, hook-decomposable as the empty sum, pd 0.
    "zero": lambda: Presentation(2, [], []),
    "free-point": lambda: free_module([(0, 0)]),
    # One generator killed by the full quadrant at (1,1): hook-decomposable
    # but not free (the inclusion of its resolution admits no graded
    # retraction).
    "hook-not-free": lambda: hook_module(Hook((0, 0), (1, 1))),
    # Two staircase generators glued along one relation at (1,1): projective
    # dimension 1 yet indecomposable, so not hook-decomposable.  Over F_2 the
    # gluing coefficient -1 equals 1.
    "pd1-not-hook": lambda: _remark_pair(2, 1),
    "pd1-not-hook-f3": lambda: _remark_pair(3, 2),
    # Residue field of the origin: relations x and y, projective dimension 2.
    "koszul-point": lambda: Presentation(
        2, [(0, 0)], [(1, 0), (0, 1)], Matrix(2, [[1, 1]])
    ),
    # Free module on the two staircase births; same support shape as
    # pd1-not-hook but one more dimension at (1,1).
    "staircase-free-pair": lambda: free_module([(0, 1), (1, 0)]),
    # Hook ⊕ free with the same Hilbert function on the classification box
    # as pd1-not-hook; distinguishing the two requires the retraction test.
    "remark2-hilbert-twin": lambda: direct_sum(
        hook_module(Hook((0, 1), (1, 1))), free_module([(1, 0)])
    ),
}


def gallery_names():
    return sorted(_GALLERY)


def gallery(name: str) -> Presentation:
    """Named fixed module; raises UnknownName for unregistered names."""
    try:
        builder = _GALLERY[name]
    except KeyError:
        raise UnknownName(f"unknown gallery module {name!r}; known: {', '.join(gallery_names())}") from None
    return builder()


def _random_degree(rng, max_degree):
    return (rng.below(max_degree + 1), rng.below(max_degree + 1))


def random_hook_summands(spec: RandomSpec) -> tuple:
    """The hook multiset a hook_sum_scrambled draw is built from.

    Deterministic in the seed and consumed as the prefix of the same stream
    used by `random_module`, so tests can recover the construction log.
    """
    if spec.mode != "hook_sum_scrambled":
        raise ValueError("hook summands are only defined for hook_sum_scrambled")
    rng = SplitMix64(spec.seed)
    count = 1 + rng.below(spec.max_hooks)
    hooks = []
    for _ in range(count):
        px = rng.below(spec.max_degree)  # leave room for a strictly larger death
        py = rng.below(spec.max_degree)
        kind = rng.below(4)
        if kind == 0:
            q = (INF, INF)
        else:
            dx = rng.below(spec.max_degree - px + 1)
            dy = rng.below(spec.max_degree - py + 1)
            if kind == 1 and dx > 0:
                dy = 0  # vertical strip
            elif kind == 2 and dy > 0:
                dx = 0  # horizontal strip
            if dx == 0 and dy == 0:
                dx = 1
            q = (px + dx, py + dy)
        hooks.append(Hook((px, py), q))
    return tuple(hooks)


def _scramble(pres: Presentation, rng: SplitMix64) -> Presentation:
    """Random degree-respecting change of basis hiding direct-sum structure.

    Row operations add generator i into generator k only when p_k ≤ p_i
    (the multiplier monomial is then legal); column operations dually merge
    relations upward in degree.  Unit scalings and permutations are also
    applied.  The isomorphism class is preserved exactly.

    Each of the 3(n + m) operations draws a choice and, when it applies,
    a pair and a factor; the draws come as one block from `peek`, and the
    stream then skips exactly the draws used, as if `below` had made them.
    """
    p = pres.p
    gens, rels = pres.gens, pres.rels
    c = pres.coeffs.a.tolist()
    n, m = len(gens), len(rels)

    row_pairs = [(k, i) for k, a in enumerate(gens) for i, b in enumerate(gens)
                 if k != i and a[0] <= b[0] and a[1] <= b[1]]
    col_pairs = [(j, j2) for j, a in enumerate(rels) for j2, b in enumerate(rels)
                 if j != j2 and a[0] <= b[0] and a[1] <= b[1]]
    ops = 3 * (n + m)
    draws = rng.peek(3 * ops + (n + m if p > 2 else 0))
    t = 0
    for _ in range(ops):
        choice = draws[t] % 2
        t += 1
        if choice == 0 and row_pairs:
            k, i = row_pairs[draws[t] % len(row_pairs)]
            f = 1 + draws[t + 1] % (p - 1)
            t += 2
            c[k] = [(a + f * b) % p for a, b in zip(c[k], c[i])]
        elif col_pairs:
            j, j2 = col_pairs[draws[t] % len(col_pairs)]
            f = 1 + draws[t + 1] % (p - 1)
            t += 2
            for row in c:
                row[j2] = (row[j2] + f * row[j]) % p
    if p > 2:
        for i in range(n):
            f = 1 + draws[t] % (p - 1)
            t += 1
            c[i] = [a * f % p for a in c[i]]
        for j in range(m):
            f = 1 + draws[t] % (p - 1)
            t += 1
            for row in c:
                row[j] = row[j] * f % p
    rng.skip(t)

    gperm = rng.shuffle(list(range(n)))
    rperm = rng.shuffle(list(range(m)))
    coeffs = [[c[i][j] for j in rperm] for i in gperm]
    return Presentation(p, [gens[i] for i in gperm], [rels[j] for j in rperm], coeffs)


def random_module(spec: RandomSpec, p=DEFAULT_FIELD) -> Presentation:
    """Seed-deterministic random presentation in one of three modes.

    free: random birth degrees, no relations.
    hook_sum_scrambled: a direct sum of random hooks followed by a random
        degree-respecting change of basis; the summand multiset is exposed
        by `random_hook_summands` for the same spec.
    arbitrary: random degrees with a random legal coefficient matrix (unit
        entries and redundant columns allowed).
    """
    if spec.mode == "free":
        rng = SplitMix64(spec.seed)
        count = 1 + rng.below(spec.max_gens)
        return free_module([_random_degree(rng, spec.max_degree) for _ in range(count)], p)

    if spec.mode == "hook_sum_scrambled":
        hooks = random_hook_summands(spec)
        # Independent stream for the basis change, decoupled from the draw
        # count above so both halves stay reproducible on their own.
        rng = SplitMix64(spec.seed ^ 0xA3C59AC2F1D9B2E7)
        pres = direct_sum(*[hook_module(h, p) for h in hooks])
        return _scramble(pres, rng)

    rng = SplitMix64(spec.seed)
    n = rng.below(spec.max_gens + 1)
    m = rng.below(spec.max_rels + 1) if n else 0
    gens = [_random_degree(rng, spec.max_degree) for _ in range(n)]
    rels = [_random_degree(rng, spec.max_degree) for _ in range(m)]
    c = [[rng.below(p) if leq(g, r) else 0 for r in rels] for g in gens]
    return validate(Presentation(p, gens, rels, c))
