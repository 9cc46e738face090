"""Terminal entry point and the `.bpm` module file format.

File grammar (one declaration per line, `#` starts a comment):

    field <p>                                   optional, default 2
    gen <name> <px> <py>
    rel <name> <qx> <qy> : <c>*<gen> [+ <c>*<gen>]...

Coefficients are integers reduced mod p; the monomial factor of each term
is implicit from the degree difference.  A relation with no terms is
written `rel <name> <qx> <qy> : 0`.

Exit codes: 0 success; 1 a corpus run saw an implication-check or
invariant failure (must never happen); 2 input or I/O problem (a corpus
run reports it per input and goes on); 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .bigraded import DEFAULT_FIELD, INF, INT64_MAX, Presentation, classification_box, compress, stable_grid, to_grid, validate
from .classify import check_implications, classify, report_to_dict, report_to_json
from .decomposition import decompose_oracle
from .errors import (
    BipersError,
    BpmSyntaxError,
    InvariantViolation,
    NonPrimeModulus,
    UnknownGenerator,
)
from .generators import RandomSpec, gallery, gallery_names, random_module
from .linalg import Matrix, check_modulus
from .resolution import minimal_free_resolution, verify_exactness

PROG = "bipers"

_GEN_LINE = re.compile(r"^gen\s+(?P<name>\S+)\s+(?P<x>\S+)\s+(?P<y>\S+)\s*$")
_REL_LINE = re.compile(r"^rel\s+(?P<name>\S+)\s+(?P<x>\S+)\s+(?P<y>\S+)\s*:(?P<terms>.*)$")
_FIELD_LINE = re.compile(r"^field\s+(?P<p>\S+)\s*$")
_NAME = re.compile(r"^[A-Za-z_]\w*$")
_TERM = re.compile(r"^(?P<c>[+-]?[0-9]+)\*(?P<g>[A-Za-z_]\w*)$")


def _parse_nat(token, lineno, what):
    """A nonnegative ASCII decimal integer that fits in int64."""
    if not (token.isascii() and token.isdigit()):
        raise BpmSyntaxError(f"{what} must be a nonnegative integer, got {token!r}", lineno)
    digits = token.lstrip("0") or "0"
    if len(digits) > 19 or int(digits) > INT64_MAX:
        raise BpmSyntaxError(f"{what} {token} does not fit in 64 bits", lineno)
    return int(digits)


def parse_module_file(text: str, default_field: int = DEFAULT_FIELD) -> Presentation:
    """Parse `.bpm` text into a validated Presentation.

    Errors carry 1-based line numbers (and a column for bad relation
    terms).
    """
    p = None
    gen_index: dict[str, int] = {}
    gens = []
    rel_rows = []  # (degree, {gen index: coefficient}, lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _FIELD_LINE.match(line)
        if m:
            if p is not None:
                raise BpmSyntaxError("duplicate field declaration", lineno)
            if gens or rel_rows:
                raise BpmSyntaxError("field must be declared before gens and rels", lineno)
            try:
                p = check_modulus(_parse_nat(m.group("p"), lineno, "field modulus"))
            except NonPrimeModulus as exc:
                raise NonPrimeModulus(f"line {lineno}: {exc}") from None
            continue
        m = _GEN_LINE.match(line)
        if m:
            name = m.group("name")
            if not _NAME.match(name):
                raise BpmSyntaxError(f"bad generator name {name!r}", lineno)
            if name in gen_index:
                raise BpmSyntaxError(f"generator {name!r} already declared", lineno)
            x = _parse_nat(m.group("x"), lineno, "generator degree")
            y = _parse_nat(m.group("y"), lineno, "generator degree")
            gen_index[name] = len(gens)
            gens.append((x, y))
            continue
        m = _REL_LINE.match(line)
        if m:
            name = m.group("name")
            if not _NAME.match(name):
                raise BpmSyntaxError(f"bad relation name {name!r}", lineno)
            x = _parse_nat(m.group("x"), lineno, "relation degree")
            y = _parse_nat(m.group("y"), lineno, "relation degree")
            terms_text = m.group("terms").strip()
            row = {}
            if terms_text != "0":
                col = raw.index(":") + 1
                for chunk in terms_text.split("+"):
                    chunk = chunk.strip()
                    col_here = raw.find(chunk, col) + 1 if chunk and chunk in raw else col
                    t = _TERM.match(chunk)
                    if not t:
                        raise BpmSyntaxError(
                            f"bad relation term {chunk!r} (expected c*genname)", lineno, col_here
                        )
                    gname = t.group("g")
                    if gname not in gen_index:
                        raise UnknownGenerator(f"unknown generator {gname!r}", lineno, col_here)
                    try:
                        c = int(t.group("c"))
                    except ValueError:  # beyond Python's int-from-str digit limit
                        raise BpmSyntaxError("coefficient too long", lineno, col_here) from None
                    gi = gen_index[gname]
                    row[gi] = row.get(gi, 0) + c
            rel_rows.append(((x, y), row, lineno))
            continue
        raise BpmSyntaxError(f"unrecognized declaration {line!r}", lineno)

    if p is None:
        p = check_modulus(default_field)
    coeffs = np.zeros((len(gens), len(rel_rows)), dtype=np.int64)
    rels = []
    for j, (deg, row, lineno) in enumerate(rel_rows):
        rels.append(deg)
        for gi, c in row.items():
            coeffs[gi, j] = c % p
    return validate(Presentation(p, gens, rels, Matrix(p, coeffs)))


def presentation_to_bpm(pres: Presentation) -> str:
    """Render a Presentation in the `.bpm` grammar (round-trips exactly)."""
    lines = [f"field {pres.p}"]
    for i, (x, y) in enumerate(pres.gens):
        lines.append(f"gen g{i} {x} {y}")
    for j, ((x, y), column) in enumerate(zip(pres.rels, pres.coeffs.a.T.tolist())):
        terms = [f"{v}*g{i}" for i, v in enumerate(column) if v]
        rhs = " + ".join(terms) if terms else "0"
        lines.append(f"rel r{j} {x} {y} : {rhs}")
    return "\n".join(lines) + "\n"


def ascii_support_plot(pres: Presentation, box=None) -> str:
    """Plain-text support diagram: one digit per grid point, `.` for zero.

    Hook corners from a successful decomposition are marked next to the
    dimension: `*` at a birth corner, `!` at a finite death corner.  A box
    override widens the view window; it must still cover all degrees.
    """
    grid = to_grid(pres, classification_box(pres) if box is None else box)
    bx, by = grid.box
    cert = classify(pres).certificate
    hooks = () if cert is None else cert.hooks
    births = {h.p for h in hooks}
    deaths = {h.q for h in hooks if not h.is_free}
    rows = []
    for b in range(by, -1, -1):
        cells = []
        for a in range(bx + 1):
            d = grid.dim(a, b)
            ch = "." if d == 0 else (str(d) if d < 10 else "+")
            mark = "*" if (a, b) in births else ("!" if (a, b) in deaths else " ")
            cells.append(f"{ch}{mark}")
        rows.append(f"y={b:<2} " + " ".join(cells))
    rows.append("     " + " ".join(f"{a:<2}" for a in range(bx + 1)))
    if cert is None:
        rows.append("not hook-decomposable")
    else:

        def fmt(d):
            return "(" + ",".join("inf" if v == INF else str(v) for v in d) + ")"

        rows.append("hooks: " + (", ".join(f"{fmt(h.p)}->{fmt(h.q)}" for h in hooks) or "(zero module)"))
    return "\n".join(rows) + "\n"


def _default_field(args) -> int:
    if getattr(args, "field", None) is not None:
        return check_modulus(args.field)
    env = os.environ.get("BIPERS_FIELD")
    if env:
        try:
            return check_modulus(int(env))
        except ValueError:
            raise NonPrimeModulus(f"BIPERS_FIELD must be a prime integer, got {env!r}") from None
    return DEFAULT_FIELD


def load_presentation(source: str, default_field: int) -> Presentation:
    """Load from a `gallery:<name>` reference or a `.bpm` file path."""
    if source.startswith("gallery:"):
        return gallery(source[len("gallery:") :])
    with open(source, "r", encoding="utf-8") as f:
        return parse_module_file(f.read(), default_field)


def _checked_report(pres: Presentation, source: str):
    """`classify(pres)`; InvariantViolation if it breaks the implications."""
    report = classify(pres)
    if not check_implications(report):
        raise InvariantViolation(f"implication check failed for {source}")
    return report


def _corpus_worker(args):
    """(source, exit status, report line or error message) for one input."""
    source, default_field = args
    try:
        out = report_to_dict(_checked_report(load_presentation(source, default_field), source))
        out["input"] = source
        return source, 0, json.dumps(out, sort_keys=True, separators=(",", ":"))
    except InvariantViolation as exc:
        return source, 1, str(exc)
    except (BipersError, OSError) as exc:
        return source, 2, str(exc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Classify finitely presented biparameter persistence modules.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_input(sp):
        sp.add_argument("input", help="path to a .bpm file, or gallery:<name>")
        sp.add_argument("--field", type=int, default=None, help="default field when the file has none")

    sp = sub.add_parser("classify", help="full classification report as JSON")
    add_input(sp)
    sp.add_argument("--json", action="store_true", help="compact single-line JSON")

    sp = sub.add_parser("betti", help="graded Betti numbers as [a, b, multiplicity] triples")
    add_input(sp)

    sp = sub.add_parser("resolve", help="minimal free resolution and exactness check")
    add_input(sp)

    sp = sub.add_parser("decompose", help="hook decomposition certificate, if any")
    add_input(sp)
    sp.add_argument("--oracle", action="store_true", help="also run the idempotent-splitting oracle")

    sp = sub.add_parser("gallery", help="list gallery modules or print one as .bpm")
    sp.add_argument("name", nargs="?", help="gallery module name")

    sp = sub.add_parser("random", help="emit a seeded random module as .bpm")
    sp.add_argument("--mode", default="arbitrary", choices=["arbitrary", "free", "hook-sum"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-gens", type=int, default=4)
    sp.add_argument("--max-rels", type=int, default=4)
    sp.add_argument("--max-degree", type=int, default=6)
    sp.add_argument("--max-hooks", type=int, default=4)
    sp.add_argument("--field", type=int, default=None)

    sp = sub.add_parser("corpus", help="classify many files, one JSON line each")
    sp.add_argument("inputs", nargs="+", help="paths or gallery:<name> references")
    sp.add_argument("--field", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers (file-level only)")

    sp = sub.add_parser("plot", help="ASCII support plot with hook corners marked")
    add_input(sp)
    sp.add_argument("--box", type=int, nargs=2, metavar=("NX", "NY"), default=None,
                    help="grid window override; must cover all degrees")
    return parser


def run_command(args, out=None) -> int:
    """Execute a parsed command; returns the process exit code."""
    out = out or sys.stdout
    verb = args.verb

    if verb == "gallery":
        if args.name is None:
            for name in gallery_names():
                print(name, file=out)
        else:
            print(presentation_to_bpm(gallery(args.name)), end="", file=out)
        return 0

    if verb == "random":
        mode = {"hook-sum": "hook_sum_scrambled"}.get(args.mode, args.mode)
        spec = RandomSpec(
            mode=mode,
            max_gens=args.max_gens,
            max_rels=args.max_rels,
            max_degree=args.max_degree,
            max_hooks=args.max_hooks,
            seed=args.seed,
        )
        pres = random_module(spec, _default_field(args))
        print(presentation_to_bpm(pres), end="", file=out)
        return 0

    if verb == "corpus":
        field = _default_field(args)
        work = [(src, field) for src in args.inputs]
        if args.jobs > 1:
            import concurrent.futures  # only here: it also loads `logging`
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_corpus_worker, work))
        else:
            results = [_corpus_worker(w) for w in work]
        for source, status, line in results:  # merge in input order
            if status:
                print(f"{PROG}: error: {source}: {line}", file=sys.stderr)
                line = json.dumps({"input": source, "error": line}, sort_keys=True)
            print(line, file=out)
        # An implication or invariant failure (1) outranks a bad input (2).
        return min((status for _, status, _ in results if status), default=0)

    field = _default_field(args)
    pres = load_presentation(args.input, field)

    if verb == "classify":
        print(report_to_json(_checked_report(pres, args.input), indent=None if args.json else 2), file=out)
        return 0

    if verb == "betti":
        from .resolution import betti_table

        bt = betti_table(pres)
        print(json.dumps({str(i): t for i, t in bt.as_triples().items()}, sort_keys=True), file=out)
        return 0

    if verb == "resolve":
        res = minimal_free_resolution(pres)
        payload = {
            "levels": {
                "0": [list(d) for d in res.gens0],
                "1": [list(d) for d in res.gens1],
                "2": [list(d) for d in res.gens2],
            },
            "maps": {"d1": res.d1.a.tolist(), "d2": res.d2.a.tolist()},
            "exact": verify_exactness(res),
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0

    if verb == "decompose":
        report = report_to_dict(_checked_report(pres, args.input))
        payload = {"hook_decomposable": report["hook_decomposable"]}
        if report["certificate"] is not None:
            payload["hooks"] = report["certificate"]["hooks"]
        if args.oracle:
            # On the compressed grid: its size follows the distinct degrees.
            grid, _ = stable_grid(compress(pres)[0])
            payload["oracle_summands"] = len(decompose_oracle(grid))
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0

    if verb == "plot":
        print(ascii_support_plot(pres, box=args.box), end="", file=out)
        return 0

    raise AssertionError(f"unhandled verb {verb}")  # pragma: no cover


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except InvariantViolation as exc:
        print(f"{PROG}: internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (BipersError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


def console_main():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
