"""qtwist: exact construction and machine verification of twist-generated
quantizations of semidirect sums of two Abelian Lie algebras.

All arithmetic is exact rational, truncated at a configurable order in a
formal deformation parameter; every verified identity is an exact zero test
on a residual term map.
"""

from .algebra import (
    Algebra,
    Element,
    Monomial,
    SeriesMatrix,
    TensorElement,
    exp_truncated,
    series_apply,
)
from .errors import (
    DegenerateRMatrixError,
    MalformedWordError,
    NoValidXiError,
    QTwistError,
    ShapeError,
    SingularMatrixError,
    SpecError,
    SpecFileError,
    TruncationError,
    UnsupportedPresetError,
)
from .hopf import HopfContext, build_context
from .model import (
    AlgebraSpec,
    DerivedStructure,
    ValidationReport,
    choose_xi,
    cybe_residual,
    derive_alpha,
    h_prime_rank,
    preset,
    validate_spec,
)
from .specfile import parse_spec_file, render_spec_file, write_spec_file
from .verify import CheckReport, CheckResult, SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraSpec",
    "CheckReport",
    "CheckResult",
    "DegenerateRMatrixError",
    "DerivedStructure",
    "Element",
    "HopfContext",
    "MalformedWordError",
    "Monomial",
    "NoValidXiError",
    "QTwistError",
    "SUITES",
    "SeriesMatrix",
    "ShapeError",
    "SingularMatrixError",
    "SpecError",
    "SpecFileError",
    "TensorElement",
    "TruncationError",
    "UnsupportedPresetError",
    "ValidationReport",
    "build_context",
    "choose_xi",
    "cybe_residual",
    "derive_alpha",
    "exp_truncated",
    "h_prime_rank",
    "parse_spec_file",
    "preset",
    "render_spec_file",
    "run_suite",
    "series_apply",
    "validate_spec",
    "write_spec_file",
]
