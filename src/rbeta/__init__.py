"""rbeta: bilateral hypergeometric and basic hypergeometric series, Ramanujan-type
integrals of reciprocal gamma products, and machine verification of their
closed-form evaluations.
"""

__version__ = "0.1.0"

from .core import Tolerance, VerificationRecord
from .errors import (RBetaError, PoleError, BranchCutError, DomainError,
                     IllFormedSpec, DivergentError, ToleranceNotReached,
                     NotReducible, ConstraintViolation, OutsideAnnulus,
                     MarginViolation, AnnulusViolation, StripViolation)
from .gammafns import (gamma, log_gamma, recip_gamma, pochhammer, dilog,
                       gaussian_q_integral, log_gaussian_q_integral)
from .bilateral import (BilateralSeriesSpec, UnilateralSeriesSpec,
                        ConvergenceClass, ConvergenceKind, SeriesValue,
                        classify, eval_H, eval_F, symmetry_transform,
                        reduce_to_unilateral, HKind, closed_form_H,
                        series_spec_for, cancel_matching_parameters)
from .qseries import (QSeriesSpec, QtoOnePath, qpoch, qpoch_inf,
                      log_qpoch_ratio, q_gamma, eval_psi, QKind,
                      closed_form_q, psi_spec_for, qpoch_inf_asymptotic,
                      theorem21_limit_probe)
from .integrals import (IntegrandSpec, QuadratureResult, weight_gm, integrate,
                        poisson_terms, poisson_sum_rhs, integral_repr_H,
                        BetaKind, beta_integral_closed, integrand_spec_for)
from .qintegrals import (QIntegrandSpec, q_integrate, q_fourier_closed,
                         abel_poisson_psi, abel_psi_target, QBetaKind,
                         qbeta_family, limit_constant, limit_constant_target,
                         h_of_q, h_of_q_target, h_of_q_probe)
from .verify import SuiteConfig, SuiteReport, run_suite, SUITE_NAMES
