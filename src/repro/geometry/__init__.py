"""Exact rational computational geometry substrate.

Everything in this package computes over :class:`fractions.Fraction`; no
floating point enters any semantic path.  The package provides the
geometric machinery the paper's constructions rest on:

* :mod:`repro.geometry.linalg` — Gaussian elimination, rank, kernels and
  affine hulls over the rationals.
* :mod:`repro.geometry.hyperplane` — canonicalised hyperplanes and
  halfspaces.
* :mod:`repro.geometry.simplex` — an exact two-phase simplex LP solver
  (Bland's rule) with strict-inequality feasibility.
* :mod:`repro.geometry.fastlp` — the certified floating-point feasibility
  filter in front of the exact solver (``REPRO_LP_MODE`` / ``--lp-mode``);
  float answers are certified with exact arithmetic, so no float ever
  enters a semantic path here either.
* :mod:`repro.geometry.fourier_motzkin` — Fourier–Motzkin elimination for
  systems of linear constraints.
* :mod:`repro.geometry.polyhedron` — H-representation polyhedra:
  feasibility, relative interior points, dimension, boundedness, vertices.
* :mod:`repro.geometry.vrep` — V-representation convex bodies (points and
  rays, open or closed hulls) used by the Appendix-A decomposition.
"""

from repro.geometry.fastlp import get_lp_mode, lp_mode, set_lp_mode
from repro.geometry.fourier_motzkin import LinearConstraint, Rel, eliminate_variable
from repro.geometry.hyperplane import Halfspace, Hyperplane, Side
from repro.geometry.linalg import (
    affine_hull_equations,
    affine_rank,
    gaussian_elimination,
    matrix_rank,
    solve_linear_system,
)
from repro.geometry.conversion import (
    extreme_rays,
    lineality_basis,
    to_vrep,
)
from repro.geometry.polyhedron import Polyhedron
from repro.geometry.simplex import (
    LPResult,
    LPStatus,
    solve_lp,
)
from repro.geometry.vrep import VPolyhedron

__all__ = [
    "LinearConstraint",
    "Rel",
    "eliminate_variable",
    "Halfspace",
    "Hyperplane",
    "Side",
    "affine_hull_equations",
    "affine_rank",
    "gaussian_elimination",
    "matrix_rank",
    "solve_linear_system",
    "Polyhedron",
    "LPResult",
    "LPStatus",
    "get_lp_mode",
    "lp_mode",
    "set_lp_mode",
    "solve_lp",
    "VPolyhedron",
    "extreme_rays",
    "lineality_basis",
    "to_vrep",
]
