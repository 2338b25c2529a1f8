"""Numerical toolkit for fully coupled forward-backward stochastic control.

Solves the coupled forward-backward system by Picard-iterated regression Monte
Carlo, constructs first- and second-order adjoint processes along a reference
control, runs spike-variation order experiments, and checks the pointwise
Hamiltonian-minimization condition on benchmark problems.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, EvaluatorError, FbsControlError, InvertibilityError,
                     NoConvergenceError, NonFiniteError)
from .paths import (INT2, SUP, BrownianBundle, MomentSpec, ProcessPanel, SeedSpec,
                    TimeGrid, moment_norm, sample_brownian)
from .model import (GENERAL, LINEAR_IN_Z, BenchmarkProblem, BoxControlSet, Coefficient,
                    ControlLaw, FeedbackControl, FiniteControlSet, OpenLoopControl,
                    ProblemSpec, RealControlSet, TerminalMap, benchmark_coupled_z,
                    benchmark_lq, constant_control, lq_value_rk4, tabulate_control,
                    validate_spec)
from .fbsde import (DecouplingData, EstimateReport, FbsdeSolution,
                    LinearFbsdeSpec, PicardOpts, check_lbeta_estimate,
                    simulate_forward, solve_bsde_regression, solve_coupled_picard,
                    solve_decoupling, solve_linear_fbsde)
from .adjoint import (AdjointOpts, FirstOrderAdjoint, GammaProcess, SecondOrderAdjoint,
                      YhatSolution, solve_first_order_adjoint, solve_gamma,
                      solve_second_order_adjoint, solve_yhat)
from .spike import (DeltaProcess, OrderReport, SpikeDiffs, SpikeSpec, VariationBundle,
                    compute_spike_diffs, default_epsilon_ladder, fit_loglog_slope,
                    run_order_experiment, simulate_variations, solve_delta)
from .hamiltonian import (HamiltonianContext, MpOpts, MpReport, build_context,
                          check_maximum_principle, eval_script_H, hamiltonian_gap)
