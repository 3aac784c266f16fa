"""Stability analysis of conic programs at KKT points.

Verifies constraint qualifications (RCQ, its strict variant, constraint
nondegeneracy) and second-order sufficient conditions at KKT points of
conic programs over products of zero/orthant/second-order/PSD cones,
combines them into a robust-isolated-calmness verdict cross-checked by a
kernel probe of the natural map, and measures solution-map regularity
empirically under canonical perturbations.
"""

from .cones import Block, Cone, smat, svec
from .conditions import (affine_hull_probe, assemble_report, check_nondegeneracy,
                         check_rcq, check_robinson_sosc, check_sosc,
                         check_srcq, kernel_probe, problem_critical_cone)
from .kkt import (KKTPoint, MultiplierSet, SolveOptions, natural_map,
                  normal_map, recover_multipliers, solve_kkt,
                  solve_kkt_multistart)
from .model import (ConicProgram, Fixture, Perturbation, builtin, evaluate,
                    fixture, load_problem, load_problem_file, oracle_example1,
                    oracle_example3, save_problem)
from .sweep import builtin_sweep, default_grid, fit_exponent, run_sweep

__version__ = "0.1.0"
