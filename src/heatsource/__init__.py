"""Simultaneous recovery of a time-dependent heat source and the initial
temperature of a 1-D rod from final-time and interior-point measurements.

The forward model expands the Dirichlet heat problem in its sine
eigenfunctions and reduces every polynomial response to closed-form moment
recurrences; the inverse problem minimizes a regularized least-squares
objective over the polynomial coefficients with a conjugate-gradient
iteration, cross-checked by a direct dense solve.
"""

from .errors import (DegenerateDirectionError, DivergenceError, DomainError,
                     HeatSourceError, ShapeMismatchError, SingularSystemError,
                     TruncationWarning)
from .harness import (CASES, ErrorReport, InversionResult, ManufacturedCase,
                      SweepCell, default_sweep_cells, emit_sensitivity_data,
                      generate_measurements, get_case, invert_case,
                      rmse_report, sensitivity_demo_geometry, sweep)
from .kernels import (DEFAULT_TRUNCATION, TruncationPolicy, exp_moment,
                      greens_function, sine_moment, source_kernel)
from .model import (Geometry, MeasurementMesh, PolyParams, SensitivityTables,
                    eval_u_final, eval_u_interior, sensitivity_tables)
from .objective import (Measurements, ObjectiveConfig, cost, gradient,
                        ridge_solve)
from .solver import (ConvergenceReport, IterationTrace, SolverConfig,
                     StationarityCheck, solve, stationarity_check)

__version__ = "0.1.0"

__all__ = [
    "CASES",
    "ConvergenceReport",
    "DEFAULT_TRUNCATION",
    "DegenerateDirectionError",
    "DivergenceError",
    "DomainError",
    "ErrorReport",
    "Geometry",
    "HeatSourceError",
    "InversionResult",
    "IterationTrace",
    "ManufacturedCase",
    "MeasurementMesh",
    "Measurements",
    "ObjectiveConfig",
    "PolyParams",
    "SensitivityTables",
    "ShapeMismatchError",
    "SingularSystemError",
    "SolverConfig",
    "StationarityCheck",
    "SweepCell",
    "TruncationWarning",
    "TruncationPolicy",
    "cost",
    "default_sweep_cells",
    "emit_sensitivity_data",
    "eval_u_final",
    "eval_u_interior",
    "exp_moment",
    "generate_measurements",
    "get_case",
    "gradient",
    "greens_function",
    "invert_case",
    "ridge_solve",
    "rmse_report",
    "sensitivity_demo_geometry",
    "sensitivity_tables",
    "sine_moment",
    "solve",
    "source_kernel",
    "stationarity_check",
    "sweep",
]
