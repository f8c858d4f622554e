"""Exact symbolic engine for finite-dimensional Lie algebras of smooth vector
fields in up to three variables: brackets, closure, structural analysis and
classification by the rank and dimension of the center."""

from .algebra import LieAlgebra, Projection, SeriesReport, close
from .classify import (
    ClassificationReport,
    JordanDecomposition,
    OneDimIdealFamily,
    SplitVerdict,
    TemplateMatch,
    TEMPLATES,
    classify,
    jordan_chains,
    match_template,
    one_dim_ideals_mod_center,
    split_check,
)
from .errors import (
    ClosureCapExceeded,
    ContextMismatch,
    IdealNotAbelian,
    InternalInvariantViolation,
    InvalidCoordinateChange,
    InvalidSpec,
    NotAnIdeal,
    NotInSpan,
    NotInvariant,
    NotNilpotent,
    NotNilpotentOperator,
    ParseError,
    ProjectionHypothesisViolated,
    SubstitutionOutsideRing,
    VflieError,
)
from .fields import (
    DEFAULT_CONTEXT,
    CoordinateChange,
    VariableContext,
    VectorField,
    coordinatize,
    uncoordinatize,
)
from .linalg import EchelonBasis, generic_rank
from .parser import parse_expression, parse_field
from .recipes import RECIPES, BuildResult, RecipeSpec, build, random_spec
from .ring import ExpMonomial, ExpPoly

__version__ = "0.1.0"

__all__ = [
    "BuildResult",
    "ClassificationReport",
    "ClosureCapExceeded",
    "ContextMismatch",
    "CoordinateChange",
    "DEFAULT_CONTEXT",
    "EchelonBasis",
    "ExpMonomial",
    "ExpPoly",
    "IdealNotAbelian",
    "InternalInvariantViolation",
    "InvalidCoordinateChange",
    "InvalidSpec",
    "JordanDecomposition",
    "LieAlgebra",
    "NotAnIdeal",
    "NotInSpan",
    "NotInvariant",
    "NotNilpotent",
    "NotNilpotentOperator",
    "OneDimIdealFamily",
    "ParseError",
    "Projection",
    "ProjectionHypothesisViolated",
    "RECIPES",
    "RecipeSpec",
    "SeriesReport",
    "SplitVerdict",
    "SubstitutionOutsideRing",
    "TEMPLATES",
    "TemplateMatch",
    "VariableContext",
    "VectorField",
    "VflieError",
    "build",
    "classify",
    "close",
    "coordinatize",
    "generic_rank",
    "jordan_chains",
    "match_template",
    "one_dim_ideals_mod_center",
    "parse_expression",
    "parse_field",
    "random_spec",
    "split_check",
    "uncoordinatize",
]
