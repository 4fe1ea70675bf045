"""Type classification of complex Lie algebras via their generic matrix pencils.

The pencil attached to a Lie algebra G is {A_x + lambda * A_a} where A_x is
the bracket matrix with symbolic coefficients.  Its Jordan-Kronecker block
structure splits algebras into three types (Jordan, Kronecker, mixed), which
this package decides exactly over the rationals.

Typical use::

    from liepencil import load_algebra, classify
    report = classify(load_algebra("my_algebra.lie"))
    print(report.sentence)
"""

from .classify import (
    ClassificationReport,
    FamilyReport,
    SamplePoint,
    Verdict,
    classify,
    classify_family,
)
from .errors import (
    ExclusionViolation,
    InvalidAlgebra,
    LiePencilError,
    ParameterBindingError,
    ParseError,
    SamplingError,
    SingularMatrix,
)
from .model import (
    LieAlgebra,
    SkewPolyMatrix,
    ValidationReport,
    Violation,
    build_ax,
    change_of_basis,
    substitute_params,
    validate,
)
from .oracle import (
    CrossCheckReport,
    InfiniteJordanBlock,
    JordanBlock,
    KroneckerBlock,
    NumericPencil,
    PencilTypeReport,
    assemble,
    congruence,
    cross_check,
    pencil_type,
)
from .parser import emit_text, load_algebra, parse_poly, parse_structured, parse_text
from .pencil import PencilProfile, generic_rank, pencil_profile, pfaffian
from .poly import NEG_INF, Polynomial, VarRegistry
from .unipoly import rational_roots

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "CrossCheckReport",
    "ExclusionViolation",
    "FamilyReport",
    "InfiniteJordanBlock",
    "InvalidAlgebra",
    "JordanBlock",
    "KroneckerBlock",
    "LieAlgebra",
    "LiePencilError",
    "NEG_INF",
    "NumericPencil",
    "ParameterBindingError",
    "ParseError",
    "PencilProfile",
    "PencilTypeReport",
    "Polynomial",
    "SamplePoint",
    "SamplingError",
    "SingularMatrix",
    "SkewPolyMatrix",
    "ValidationReport",
    "VarRegistry",
    "Verdict",
    "Violation",
    "assemble",
    "build_ax",
    "change_of_basis",
    "classify",
    "classify_family",
    "congruence",
    "cross_check",
    "emit_text",
    "generic_rank",
    "load_algebra",
    "parse_poly",
    "parse_structured",
    "parse_text",
    "pencil_profile",
    "pencil_type",
    "pfaffian",
    "rational_roots",
    "substitute_params",
    "validate",
    "__version__",
]
