"""Stochastic trust-region optimization with random models.

Library layout:
    engine      generic trust-region loop and its configuration/record types
    models      poised sets, interpolation/regression model fitting, probes
    subproblem  Cauchy-point and dogleg steps with decrease certificates
    oracles     noisy sum-of-squares oracles and sample-size rules
    logistic    subsampled logistic loss and LIBSVM ingestion
    problems    built-in sum-of-squares test suite
    variants    the assembled solver variants and the Adagrad baseline
    theory      exact-rational parameter-condition calculator
    profiles    solved criteria and performance profiles
    cli         the `stormopt` command-line harness
"""

from .engine import (IterationEvent, RunRecord, StoppingRule, TrustRegionConfig,
                     TrustRegionState, acceptance_test, phi_monitor, run)
from .models import (GeometryError, ModelQualityReport, PoisedSet, QuadraticModel,
                     fit_gradient_taylor, fit_interpolation, fit_quadratic_set,
                     fit_regression, make_poised_set, probe_fully_linear)
from .oracles import (EstimatePair, NoiseSpec, StochasticProblem, averaged_estimate,
                      chebyshev_gradient_sample_size, chebyshev_sample_size,
                      per_s_to_sigma)
from .logistic import (Dataset, LibsvmParseError, LogisticProblem, load_libsvm,
                       make_synthetic, subsample_logistic_oracle, train_test_split)
from .problems import ProblemSpec, builtin_suite, get_problem, problem_names
from .profiles import (ProfileTable, build_profiles, profile_fraction, solve_threshold,
                       tau_solved)
from .subproblem import StepResult, cauchy_point, dogleg
from .theory import (TheoryConstants, check_probabilities, compute_theory_constants,
                     failure_alpha_beta, min_success_probability)
from .variants import (run_adagrad, run_storm_failure, run_storm_logistic,
                       run_storm_unbiased, run_tr_saa)

__version__ = "0.1.0"
