"""Exact-arithmetic construction and verification of degenerate
Bernoulli/Euler polynomial families and their cosine/sine variants."""

from .multipoly import GaussRat, MPoly, VARIABLES, as_rat, format_rat
from .egfseries import EgfSeries
from .combinat import (
    StirlingKind,
    StirlingTable,
    falling_factorial,
    gen_falling_factorial,
    gen_rising_factorial,
    stirling_table,
)
from .families import (
    FamilyKind,
    FamilySequence,
    classical_family,
    complex_euler,
    complex_series,
    deg_cos_sin_series,
    deg_exp_series,
    family,
    family_closed,
    kernel_series,
)
from .identities import (
    IdentityEngine,
    IdentityId,
    IdentityReport,
    verify,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "EgfSeries",
    "FamilyKind",
    "FamilySequence",
    "GaussRat",
    "IdentityEngine",
    "IdentityId",
    "IdentityReport",
    "MPoly",
    "StirlingKind",
    "StirlingTable",
    "VARIABLES",
    "as_rat",
    "classical_family",
    "complex_euler",
    "complex_series",
    "deg_cos_sin_series",
    "deg_exp_series",
    "falling_factorial",
    "family",
    "family_closed",
    "format_rat",
    "gen_falling_factorial",
    "gen_rising_factorial",
    "kernel_series",
    "stirling_table",
    "verify",
    "verify_all",
]
