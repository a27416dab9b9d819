"""Numerical calculus for operators T = M - a z I on entire functions.

Truncated Taylor-series arithmetic, Weyl-operator algebra, kernel bases,
translate eigenfunctions, completeness experiments and explicit
approximate orbit constructions, plus a reproducible CLI.
"""

__version__ = "0.1.0"
