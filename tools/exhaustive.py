"""Exhaustive small-scope check of `classify` against the independent routes.

Usage::

    python3 tools/exhaustive.py --field P --side S --gens G --rels R

Enumerates every presentation over F_P with at most G generators and at
most R relations, all at degrees in {0, …, S−1}²: every multiset of
generator degrees, every multiset of relation degrees (none when there is
no generator), and every coefficient vector on the legal entries.  For
each module it checks that

* the report passes `check_implications`, and its certificate, if any,
  passes `verify_certificate`;
* the Koszul route `betti_table` gives `classify`'s Betti table;
* the oracle's verdict equals `hook_decomposable`: every summand of
  `decompose_oracle` on the compressed grid passes `hook_profile`.

It prints the module count, the count per verdict class and the number of
disagreements with the first few of them, and exits 1 on any
disagreement.  `tests/test_exhaustive.py` runs the scope P = 2, S = 2,
G = R = 2 from this file.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bipers.bigraded import Presentation, compress, legal_mask, stable_grid  # noqa: E402
from bipers.classify import check_implications, classify, verify_certificate  # noqa: E402
from bipers.decomposition import decompose_oracle, hook_profile  # noqa: E402
from bipers.errors import NonPrimeModulus  # noqa: E402
from bipers.linalg import check_modulus  # noqa: E402
from bipers.resolution import betti_table  # noqa: E402

VERDICTS = ("free", "hook not free", "pd 1 not hook", "pd 2")


def presentations(p: int, side: int, max_gens: int, max_rels: int):
    """Every presentation of the scope, degree multisets in lex order."""
    points = list(itertools.product(range(side), repeat=2))
    for n_gens in range(max_gens + 1):
        for gens in itertools.combinations_with_replacement(points, n_gens):
            for n_rels in range(max_rels + 1 if gens else 1):
                for rels in itertools.combinations_with_replacement(points, n_rels):
                    legal = legal_mask(gens, rels)
                    for values in itertools.product(range(p), repeat=int(legal.sum())):
                        coeffs = np.zeros(legal.shape, dtype=np.int64)
                        coeffs[legal] = values
                        yield Presentation(p, gens, rels, coeffs)


def verdict(report) -> str:
    if report.free:
        return "free"
    if report.hook_decomposable:
        return "hook not free"
    return "pd 1 not hook" if report.projective_dimension == 1 else "pd 2"


def failed_checks(pres: Presentation, report) -> list:
    """The names of the checks that `pres` and its report fail."""
    failed = []
    if not check_implications(report):
        failed.append("implications")
    if report.certificate is not None and not verify_certificate(pres, report.certificate):
        failed.append("certificate")
    if betti_table(pres) != report.betti:
        failed.append("betti")
    grid, _ = stable_grid(compress(pres)[0])
    if all(hook_profile(s) is not None for s in decompose_oracle(grid)) != report.hook_decomposable:
        failed.append("oracle")
    return failed


def run(p: int, side: int, max_gens: int, max_rels: int):
    """(count per verdict class, [(presentation, failed checks), ...])."""
    verdicts = Counter(dict.fromkeys(VERDICTS, 0))
    disagreements = []
    for pres in presentations(p, side, max_gens, max_rels):
        report = classify(pres)
        verdicts[verdict(report)] += 1
        failed = failed_checks(pres, report)
        if failed:
            disagreements.append((pres, failed))
    return verdicts, disagreements


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--field", type=int, required=True, help="prime field modulus P")
    parser.add_argument("--side", type=int, required=True, help="degrees lie in {0, ..., S-1}^2")
    parser.add_argument("--gens", type=int, required=True, help="at most G generators")
    parser.add_argument("--rels", type=int, required=True, help="at most R relations")
    args = parser.parse_args(argv)
    try:
        check_modulus(args.field)
    except NonPrimeModulus as exc:
        parser.error(str(exc))
    t0 = time.perf_counter()
    verdicts, disagreements = run(args.field, args.side, args.gens, args.rels)
    print(f"modules {sum(verdicts.values())}  "
          + "  ".join(f"{name.replace(' ', '_')} {n}" for name, n in verdicts.items())
          + f"  disagreements {len(disagreements)}  seconds {time.perf_counter() - t0:.1f}")
    for pres, failed in disagreements[:10]:
        print(f"  {', '.join(failed)}: {pres!r}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
