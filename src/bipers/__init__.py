"""bipers: exact classification of biparameter persistence modules.

Represents finitely presented bigraded modules over F_p[x, y] and decides
membership in the classes free / hook-decomposable / diagonal structure
theorem / projective dimension ≤ 1, with verifiable certificates.
"""

from .bigraded import (
    DEFAULT_FIELD,
    INF,
    Bar,
    GridModule,
    Hook,
    Presentation,
    classification_box,
    direct_sum,
    hilbert_function,
    hilbert_grid,
    minimize,
    stable_grid,
    to_grid,
    validate,
)
from .classify import (
    ClassificationReport,
    check_implications,
    classify,
    report_to_dict,
    report_to_json,
)
from .decomposition import (
    HookCertificate,
    decompose_oracle,
    hom_basis,
    hook_profile,
    peel_hooks,
    verify_certificate,
)
from .errors import (
    BipersError,
    BoxTooSmall,
    BpmSyntaxError,
    IllegalEntry,
    InvalidSpec,
    InvariantViolation,
    NonPrimeModulus,
    ThresholdExceeded,
    UnknownGenerator,
    UnknownName,
)
from .generators import (
    RandomSpec,
    SplitMix64,
    free_module,
    gallery,
    gallery_names,
    gamma_product,
    hook_module,
    random_hook_summands,
    random_module,
)
from .linalg import Matrix, kernel_basis, rank, rref
from .resolution import (
    BettiTable,
    Resolution,
    betti_table,
    grid_betti,
    hilbert_from_betti,
    minimal_free_resolution,
    syzygy_presentation,
    verify_exactness,
)

__version__ = "0.1.0"
