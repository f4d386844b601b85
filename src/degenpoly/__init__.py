"""Exact-arithmetic construction and verification of degenerate
Bernoulli/Euler polynomial families and their cosine/sine variants."""

from .numeric import GaussRat, Rat, as_gauss, as_rat, format_gauss, format_rat
from .multipoly import MPoly, VARIABLES
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
    complex_bernoulli,
    complex_euler,
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
    "Rat",
    "StirlingKind",
    "StirlingTable",
    "VARIABLES",
    "as_gauss",
    "as_rat",
    "classical_family",
    "complex_bernoulli",
    "complex_euler",
    "deg_cos_sin_series",
    "deg_exp_series",
    "falling_factorial",
    "family",
    "family_closed",
    "format_gauss",
    "format_rat",
    "gen_falling_factorial",
    "gen_rising_factorial",
    "kernel_series",
    "stirling_table",
    "verify",
    "verify_all",
]
