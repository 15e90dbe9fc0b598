"""bracelab: an exact-arithmetic workbench for finite left braces.

Core objects are :class:`~bracelab.abelian.AbelianGroup` (coordinate-tuple
elements over cyclic moduli) and :class:`~bracelab.brace.Brace` (a lambda
table of rank permutations defining the circle and star operations).  On top
of those sit nilpotency series and certificates, an identity suite,
multiplication models for the nonabelian groups of order p^4, exhaustive
enumeration with a holomorph oracle, and Yang-Baxter solution checks.
"""

from .abelian import (
    AbelianGroup,
    NotBijective,
    NotHomomorphism,
    StructuralAnomaly,
    all_automorphisms,
    group_closure,
    multiples_subgroup,
    validate_automorphism,
)
from .brace import (
    BadLambdaZero,
    Brace,
    BraceError,
    BraceReport,
    CocycleViolation,
    NotAnIdeal,
    NotAutomorphism,
    brace_from_circ_table,
    brace_report,
    is_isomorphic,
    quotient_brace,
    trivial_brace,
    validate_brace,
)
from .constructions import (
    RING_PRESETS,
    diagonal_brace_m1,
    diagonal_brace_m2,
    ring_brace,
)
from .corpus import builtin_braces
from .enumeration import EnumerationResult, GuardExceeded, enumerate_braces, holomorph_count_oracle
from .fileformat import BraceFileError, load_brace, save_brace
from .nilpotency import (
    Certificate,
    ConsistencyFailure,
    PreconditionMismatch,
    SeriesResult,
    SuiteReport,
    SuiteScope,
    Theorem1Report,
    TheoremContext,
    annihilator_certificate,
    certify_right_nilpotent,
    discover_theorem_context,
    identity_suite,
    pa_bound_check,
    series,
    socle,
    theorem1_check,
)
from .pgroups import (
    Classification,
    GroupFingerprint,
    GroupModel,
    InputShapeMismatch,
    NoMatch,
    NONABELIAN_TAGS,
    RelationFailure,
    UnsupportedPrime,
    build_model,
    classify_multiplicative_group,
    fingerprint,
    verify_presentation_relations,
)
from .ybe import (
    NotWellDefined,
    YBESolution,
    check_solution,
    multipermutation_level,
    retraction,
    solution_from_brace,
    twist_solution,
)

__version__ = "0.1.0"
