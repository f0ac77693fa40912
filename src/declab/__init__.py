"""Discrete exterior calculus workbench.

Simplicial complexes with circumcentric duals, discrete operators
(d, star, codifferential, Hodge-Laplace), a scalar Poisson Dirichlet solver,
and convergence / consistency study tooling.
"""

__version__ = "0.1.0"

from .complex import ShapeReport, SimplicialComplex, build_complex
from .dualmesh import DualComplex, build_dual
from .generators import FamilySpec, generate, jitter_interior, refine
from .geometry import circumcenter
from .operators import Cochain, discrete_l2, hodge_star, inner_product
from .problems import get_problem
from .solve import SolverConfig, error_report, make_problem, solve
from .study import run_consistency_study, run_convergence_study

__all__ = [
    "SimplicialComplex", "ShapeReport", "build_complex",
    "DualComplex", "build_dual", "circumcenter",
    "FamilySpec", "generate", "refine", "jitter_interior",
    "Cochain", "hodge_star", "inner_product", "discrete_l2",
    "get_problem", "make_problem", "solve", "SolverConfig", "error_report",
    "run_convergence_study", "run_consistency_study",
]
