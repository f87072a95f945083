"""Exact Burnside-ring verification of nodal-orbit counts in invariant conic pencils."""

# bench/make_expected.py imports this name from the package root.
from .nodal import enumerate_sigma_configs

__version__ = "0.1.0"
