"""Zero counts of random Sturm-Liouville eigenfunction sums.

A numerical laboratory: solve regular Sturm-Liouville eigenproblems on
[0, 2*pi], form Gaussian random linear combinations of the
eigenfunctions, count their zeros, and compare the counts with
stationary random trigonometric polynomials through closed-form
Kac-Rice oracles and seeded Monte Carlo experiments.
"""

from .eigen import (BoundaryCondition, EigenBasis, Eigenpair,
                    asymptotic_deviation, eigen_solve, normalize_eigenfunction,
                    ode_residual, orthogonality_defect)
from .ensembles import (CoefficientDraw, RandomProcess, build_process,
                        sample_coefficient_block, sample_coefficients)
from .errors import (DomainError, InvariantViolation, NumericError,
                     PreconditionError, SlzerosError, UsageError)
from .harness import (ExperimentConfig, GapDiagnostics, ReplicateRecord,
                      SummaryReport, build_basis_pair, covariance_check,
                      gap_diagnostics, ks_statistic, read_records,
                      run_experiment, summarize, sup_eps_slope,
                      write_records, write_summary)
from .kernels import (covariance_X, expected_count_closed, kac_rice_expected,
                      r_n_closed)
from .weights import (Grid, Potential, WeightFunction, builtin_weights,
                      default_grid, normalize_weight, weight_to_potential)
from .zeros import (ZeroCountResult, count_hermite_zeros, count_zeros,
                    count_zeros_changed_variable)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
