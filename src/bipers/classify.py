"""Top-level classification predicates and the implication checker.

A module is classified along five membership questions: free,
hook-decomposable, satisfying the diagonal structure theorem, being a
product of two monoparameter modules, and projective dimension.  The middle
three coincide, so one decision procedure (hook decomposition) answers all
of them and its certificate doubles as the diagonal-form data.  The report
must always satisfy the implication diagram:

    free  ⇒  hook-decomposable = structure-theorem = product  ⇒  pd ≤ 1

with free ⇔ pd = 0; `check_implications` re-checks this on every report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .bigraded import INF, Hook, Presentation, classification_box, compress, hilbert_grid, minimize
from .decomposition import HookCertificate, peel_hooks, verify_certificate  # noqa: F401 (re-exported)
from .resolution import BettiTable, _minimal_betti


@dataclass
class ClassificationReport:
    free: bool
    hook_decomposable: bool
    structure_theorem: bool
    gamma_product: bool
    projective_dimension: int
    betti: BettiTable
    certificate: HookCertificate | None
    field_modulus: int
    box: tuple
    timings: dict = field(default_factory=dict)


def classify(pres: Presentation) -> ClassificationReport:
    """Full classification with certificate; deterministic up to timings.

    One pass over the module: minimize once, `compress` it, take its
    Hilbert function from one rank per point (`hilbert_grid`; no grid,
    bases or maps), β0/β1 from the minimal degrees and β2 (hence pd) by
    Möbius inversion (`_minimal_betti`), and, unless pd = 2, let
    `peel_hooks` count hooks and check its certificate's Smith form on the
    compressed minimal presentation.  Betti degrees and hook corners are
    mapped back by `expand`; `box` is the input's classification box.  The
    grid routes `betti_table` (the Koszul check on this table) and
    `verify_certificate` keep `stable_grid`'s frontier check.
    """
    timings = {}
    t0 = t = time.perf_counter()
    mpres = minimize(pres)
    timings["minimize"] = time.perf_counter() - t

    t = time.perf_counter()
    cpres, axes = compress(mpres)
    bt = _minimal_betti(cpres, hilbert_grid(cpres))
    timings["betti"] = time.perf_counter() - t

    free = mpres.n_rels == 0
    pd = 0 if free else (1 if bt.total(2) == 0 else 2)

    t = time.perf_counter()
    cert = None if pd == 2 else peel_hooks(cpres)
    timings["decompose"] = time.perf_counter() - t
    hook = cert is not None

    timings["total"] = time.perf_counter() - t0
    return ClassificationReport(
        free=free,
        hook_decomposable=hook,
        structure_theorem=hook,
        gamma_product=hook,
        projective_dimension=pd,
        betti=bt.expand(axes),
        certificate=cert.expand(axes) if hook else None,
        field_modulus=pres.p,
        box=classification_box(pres),
        timings=timings,
    )


def check_implications(report: ClassificationReport) -> bool:
    """True iff the report obeys the full implication diagram."""
    if not (report.structure_theorem == report.hook_decomposable == report.gamma_product):
        return False
    if report.free and not report.hook_decomposable:
        return False
    if report.hook_decomposable and report.projective_dimension > 1:
        return False
    if report.free != (report.projective_dimension == 0):
        return False
    return True


def _degree_json(d):
    return ["inf" if v == INF else int(v) for v in d]


def report_to_dict(report: ClassificationReport, include_timings: bool = True) -> dict:
    """JSON-ready dict with stable field names and deterministic ordering."""
    cert_json = None
    if report.certificate is not None:
        hooks = sorted(report.certificate.hooks, key=Hook.sort_key)
        diag = report.certificate.diagonal_presentation()
        cert_json = {
            "hooks": [{"p": list(h.p), "q": _degree_json(h.q)} for h in hooks],
            "smith_diagonal": {
                "field": diag.p,
                "gens": [list(g) for g in diag.gens],
                "rels": [list(r) for r in diag.rels],
                "coeffs": diag.coeffs.a.tolist(),
            },
        }
    out = {
        "field": report.field_modulus,
        "box": list(report.box),
        "free": report.free,
        "hook_decomposable": report.hook_decomposable,
        "structure_theorem": report.structure_theorem,
        "gamma_product": report.gamma_product,
        "projective_dimension": report.projective_dimension,
        "betti": {str(i): tri for i, tri in report.betti.as_triples().items()},
        "certificate": cert_json,
    }
    if include_timings:
        out["timings"] = report.timings
    return out


def report_to_json(report: ClassificationReport, include_timings: bool = True, indent=None) -> str:
    return json.dumps(
        report_to_dict(report, include_timings=include_timings),
        sort_keys=True,
        indent=indent,
        separators=(",", ": ") if indent else (",", ":"),
    )
