"""Exact-arithmetic construction and verification of degenerate
Bernoulli/Euler polynomial families and their cosine/sine variants.

The top level exports what the benchmark harness (perfbench/) reads, plus
the identity engine and its tags; every other name is imported from its
submodule."""

from .multipoly import MPoly
from .egfseries import EgfSeries
from .combinat import StirlingKind, StirlingTable, gen_falling_factorial
from .families import FamilyKind, complex_euler, deg_exp_series, family, kernel_series
from .identities import IdentityEngine, IdentityId

__version__ = "0.1.0"

__all__ = [
    "EgfSeries",
    "FamilyKind",
    "IdentityEngine",
    "IdentityId",
    "MPoly",
    "StirlingKind",
    "StirlingTable",
    "complex_euler",
    "deg_exp_series",
    "family",
    "gen_falling_factorial",
    "kernel_series",
]
