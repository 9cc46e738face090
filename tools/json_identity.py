"""Byte-identity probe: `classify` JSON of this tree against another tree.

Usage::

    python3 tools/json_identity.py <other-src-dir>

`<other-src-dir>` is the directory that holds the other tree's `bipers`
package, for example `src/` of a `git archive` export of the parent commit.
Both trees classify the same 934 `.bpm` inputs, built by this tree:

* the 8 gallery modules at p ∈ {2, 3, 65521}, coefficients reduced mod p;
* the first 200 modules of each benchmark corpus (`bench/corpora.py`) at
  seed 7;
* seeds 0–9 of the hook-sum sweep ``max_hooks=12, max_degree=16`` at p = 2;
* 300 `arbitrary` modules (``max_gens=max_rels=5``, seeds 0–299) at p = 3.

Each tree parses the text itself and renders `report_to_json` without
`timings`, and each prints what `bipers betti`, `bipers resolve`, `bipers
decompose` and `bipers plot` print for the same text, read from a
temporary `.bpm` file.  The other tree also builds the 334 inputs that do
not come from `bench/corpora.py` with its own `gallery`, `random_module`
and `presentation_to_bpm`, so a change to seeded generation or to the
printer shows up as a differing input.  The script prints the number of differing inputs, the number of
inputs whose classify JSON differs, the number of this tree's certificates
that fail `verify_certificate`, the number of inputs whose classify JSON
`betti` differs from this tree's `bipers betti` output (the Möbius route
against the Koszul route, ``betti_routes_differing``) and, per verb, the
number of inputs whose `betti`, `resolve`, `decompose` or `plot` output
differs, and exits 1 when any count is nonzero.
"""

from __future__ import annotations

import importlib.util
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no caches beside bench/corpora.py

import bipers  # noqa: E402
import bipers.cli  # noqa: E402
import corpora  # noqa: E402
from bipers.classify import classify, report_to_json, verify_certificate  # noqa: E402
from bipers.cli import parse_module_file  # noqa: E402

CORPUS_PREFIX = 200
CORPUS_SEED = 7


def load_other(src_dir: Path):
    """Import the `bipers` package under `src_dir` as `other_bipers`;
    returns its `cli` module and its top-level package."""
    package = src_dir / "bipers"
    spec = importlib.util.spec_from_file_location(
        "other_bipers", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["other_bipers"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("other_bipers.cli"), module


def generated_inputs(lib, cli):
    """The 334 gallery and `random_module` inputs as `.bpm` text, built
    with the package `lib` and printed with its `cli` module."""
    texts = []
    for p in (2, 3, 65521):
        for name in lib.gallery_names():
            g = lib.gallery(name)
            texts.append(cli.presentation_to_bpm(lib.Presentation(p, g.gens, g.rels, lib.Matrix(p, g.coeffs.a))))
    for seed in range(10):
        spec = lib.RandomSpec("hook_sum_scrambled", max_hooks=12, max_degree=16, seed=seed)
        texts.append(cli.presentation_to_bpm(lib.random_module(spec)))
    for seed in range(300):
        spec = lib.RandomSpec("arbitrary", max_gens=5, max_rels=5, seed=seed)
        texts.append(cli.presentation_to_bpm(lib.random_module(spec, p=3)))
    return texts


VERBS = ("betti", "resolve", "decompose", "plot")


def verb_output(cli, verb: str, path: str) -> str:
    """What `bipers <verb> <path>` prints, run through `cli.run_command`."""
    out = io.StringIO()
    cli.run_command(cli.build_parser().parse_args([verb, path]), out)
    return out.getvalue()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other_cli, other = load_other(Path(argv[0]).resolve())
    generated = generated_inputs(bipers, bipers.cli)
    inputs_differing = sum(a != b for a, b in zip(generated, generated_inputs(other, other_cli)))
    texts = generated + [
        case.text for workload in corpora.WORKLOADS for case in corpora.corpus(workload, CORPUS_SEED, CORPUS_PREFIX)
    ]
    differing = unverified = routes_differing = 0
    verb_differing = dict.fromkeys(VERBS, 0)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "module.bpm")
        for text in texts:
            pres = parse_module_file(text)
            report = classify(pres)
            if report.certificate is not None and not verify_certificate(pres, report.certificate):
                unverified += 1
            mine = report_to_json(report, include_timings=False)
            theirs = other.report_to_json(other.classify(other_cli.parse_module_file(text)), include_timings=False)
            differing += mine != theirs
            Path(path).write_text(text, encoding="utf-8")
            for verb in VERBS:
                out = verb_output(bipers.cli, verb, path)
                verb_differing[verb] += out != verb_output(other_cli, verb, path)
                if verb == "betti":
                    routes_differing += json.loads(mine)["betti"] != json.loads(out)
    verbs = "".join(f"{verb}_differing {n}  " for verb, n in verb_differing.items())
    print(f"inputs {len(texts)}  differing_inputs {inputs_differing}  differing {differing}  "
          f"failed_verify {unverified}  betti_routes_differing {routes_differing}  "
          f"{verbs}seconds {time.perf_counter() - t0:.1f}")
    counts = (inputs_differing, differing, unverified, routes_differing, *verb_differing.values())
    return 1 if any(counts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
