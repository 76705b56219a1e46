"""tribip: tri-objective binary integer programming matheuristic toolkit.

Pipeline: LP-relaxation lower bound sets (weighted-sum extreme point
enumeration) -> round-down repair -> path relinking -> dominance-filtered
front, evaluated against a brute-force exact Pareto oracle via the
hypervolume indicator.
"""

from .errors import (DimensionError, EnumerationLimitError, InfeasibleProblemError,
                     InsufficientSolutionsError, NoRoundedSolutionError, ParseError,
                     TribipError, ValidationError)
from .model import (P_OBJECTIVES, FrontData, Problem, Solution, assignment_problem,
                    evaluate, general_problem, generate_assignment, generate_knapsack,
                    is_feasible, knapsack_problem, make_solution, read_front,
                    read_instance, write_front, write_instance)
from .lp import LpSolveResult, RelaxationSolver, is_integral, solve_weighted_lp
from .lbset import LbPoint, LbSet, compute_lb_set, lb_front_records
from .metrics import (ReferenceFront, exact_front, exact_front_solutions, filter_nondominated,
                      filter_nondominated_solutions, hv_percent, hypervolume, hypervolume_mc,
                      normalize)
from .heuristic import (VARIANTS, IrRow, IrSet, PrArchives, PrConfig, RunReport, improved_nd,
                        path_relink_once, path_relink_walk, round_down, run, select_pair,
                        solve_from_lb)
from .rng import Xoshiro256StarStar

__version__ = "0.1.0"

__all__ = [
    "P_OBJECTIVES", "Problem", "Solution", "FrontData",
    "assignment_problem", "general_problem", "knapsack_problem",
    "generate_assignment", "generate_knapsack",
    "evaluate", "is_feasible", "make_solution",
    "read_instance", "write_instance", "read_front", "write_front",
    "LpSolveResult", "RelaxationSolver", "solve_weighted_lp", "is_integral",
    "LbPoint", "LbSet", "compute_lb_set", "lb_front_records",
    "ReferenceFront", "filter_nondominated", "filter_nondominated_solutions",
    "normalize", "hypervolume", "hypervolume_mc", "exact_front", "exact_front_solutions",
    "hv_percent",
    "VARIANTS", "PrConfig", "IrRow", "IrSet", "PrArchives", "RunReport",
    "round_down", "select_pair", "improved_nd",
    "path_relink_once", "path_relink_walk", "run", "solve_from_lb",
    "Xoshiro256StarStar",
    "TribipError", "DimensionError", "ValidationError", "ParseError",
    "InfeasibleProblemError",
    "EnumerationLimitError", "NoRoundedSolutionError", "InsufficientSolutionsError",
    "__version__",
]
