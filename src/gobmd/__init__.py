"""Globally optimal one-bit maximum-likelihood MIMO detection.

The detection objective is reformulated as a mixed-integer linear program
whose exponentially many tangent inequalities are generated lazily inside a
custom branch-and-bound, so only small LPs are ever solved.
"""

__version__ = "0.1.0"

from .model import (
    ComplexScene,
    GenConfig,
    RealInstance,
    bit_error_rate,
    generate_instance,
    load_instance,
    quantize_one_bit,
    real_expand_channel,
    save_instance,
)
from .loss import Cut, LossContext, f_obj, g_eval, g_grad, inv_mills, log_ncdf, make_cut
from .lp import LpProblem, LpSolution, solve_lp
from .baselines import OracleResult, exhaustive_search, least_squares, zero_forcing
from .solver import (
    SolveReport,
    SolverOptions,
    initial_cuts,
    solve_gobmd,
    solve_incremental,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    write_results,
)

__all__ = [
    "ComplexScene",
    "GenConfig",
    "RealInstance",
    "bit_error_rate",
    "generate_instance",
    "load_instance",
    "quantize_one_bit",
    "real_expand_channel",
    "save_instance",
    "Cut",
    "LossContext",
    "f_obj",
    "g_eval",
    "g_grad",
    "inv_mills",
    "log_ncdf",
    "make_cut",
    "LpProblem",
    "LpSolution",
    "solve_lp",
    "OracleResult",
    "exhaustive_search",
    "least_squares",
    "zero_forcing",
    "SolveReport",
    "SolverOptions",
    "initial_cuts",
    "solve_gobmd",
    "solve_incremental",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "write_results",
]
