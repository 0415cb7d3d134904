"""Wiener amalgam norms, dispersive kernels, and exponent-region checks.

Each public name lives in one layer module: grid, wiener, propagator,
exponents, verify or cli.  Importing the package imports none of them.
"""

__version__ = "0.1.0"
