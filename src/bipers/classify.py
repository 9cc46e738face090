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

from .bigraded import INF, Hook, Presentation, classification_box, compress, expand, grid_coordinates, legal_mask, minimize, stable_grid
from .decomposition import HookCertificate, _propagate, peel_hooks
from .linalg import Matrix, rank
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

    One pass over the module: minimize once, `compress` it, evaluate the
    stable grid once, take β0/β1 from the minimal degrees and β2 (hence
    pd) by Möbius inversion of the grid's dimensions (`_minimal_betti`),
    and, unless pd = 2, let `peel_hooks` count hooks and check its
    certificate's Smith form on the compressed minimal presentation.
    Betti degrees and hook corners are mapped back by `expand`; `box` is
    the input's classification box.  `betti_table` is the independent
    Koszul check on this table.
    """
    timings = {}
    t0 = t = time.perf_counter()
    mpres = minimize(pres)
    timings["minimize"] = time.perf_counter() - t

    t = time.perf_counter()
    cpres, axes = compress(mpres)
    grid, _ = stable_grid(cpres)
    bt = _minimal_betti(cpres, grid.dims)
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


def verify_certificate(pres: Presentation, cert: HookCertificate) -> bool:
    """Check a certificate against a presentation from scratch, on the grid.

    Independent of the Smith check in `peel_hooks`: rebuilds the stable grid
    of the compressed minimal presentation, maps the hook corners onto its
    axes (False if one is off them), checks that the basis is legal with one
    row per generator and one column per hook, and propagates each column
    from its hook's birth.  They define an isomorphism from the hook sum
    exactly when each image vanishes at its hook's death and, at every grid
    point, the images of the hooks supported there form a basis.
    """
    cpres, axes = compress(minimize(pres))
    grid, box = stable_grid(cpres)
    local = {expand((a, b), axes): (a, b) for a in range(len(axes[0])) for b in range(len(axes[1]))}
    local[(INF, INF)] = (INF, INF)
    if any(h.p not in local or h.q not in local for h in cert.hooks):
        return False
    hooks = [Hook(local[h.p], local[h.q]) for h in cert.hooks]
    basis, p = cert.basis, pres.p
    if basis.p != p or basis.shape != (cpres.n_gens, len(hooks)):
        return False
    if basis.a[~legal_mask(cpres.gens, [h.p for h in hooks])].any():
        return False  # `grid_coordinates` would drop the entry
    images = [_propagate(grid, h.p, grid_coordinates(cpres, h.p, v)) for h, v in zip(hooks, basis.a.T)]
    if any(not h.is_free and w[h.q].any() for h, w in zip(hooks, images)):
        return False
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            rows = [w[(a, b)] for h, w in zip(hooks, images) if h.supports((a, b))]
            if len(rows) != grid.dim(a, b) or rank(Matrix(p, rows)) != len(rows):
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
