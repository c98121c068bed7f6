"""Sharp tail bounds for sums of independent bounded random variables.

Given variance and upper-third-moment budgets (sigma, y, eps) for a sum S
of independent summands bounded above by y, this package computes the
classical Bennett-Hoeffding bound, its Pinelis-Utev refinement, the
Bentkus bound and the optimal class-F3 bound on the Gaussian-plus-Poisson
comparison mixture, together with the positive-part moment machinery the
latter two are built on and the extremal constructions that show how tight
they are.
"""

from .bounds import (EffectiveEpsilon, SummandBudget, TailBoundResult,
                     alpha_x_split, be, bh, bh_exp, c_const, ca, ea,
                     effective_epsilon, en, lc3_bound, m_function, p_alpha,
                     pin, plc_mixture_upper, plc_poisson_tail, pu, pu_exp,
                     pu_numeric, solve_t_x)
from .distributions import (BoundParams, MixtureRV, TwoPointRV, mixture_mgf,
                            mixture_tail, two_point_palpha_closed,
                            two_point_pinf_closed)
from .errors import (ConstructionError, DomainError, NumericalError,
                     RangeError, TailboundError)
from .oracle import (MCEstimate, SumSpec, TestFunction, enumerate_expectation,
                     extremal_sum_spec, extremal_two_point,
                     hp_counterexample_gap, mc_expectation, mc_tail,
                     mixture_expectation_f, random_sum_spec)
from .posmoments import (PosMomentMethod, SlowDecayWarning,
                         mixture_shifted_moments, pos_moment,
                         pos_moment_charfn, pos_moment_laplace,
                         pos_moment_mixture_series, pos_moment_poisson_local)
from .special import (bennett_psi, exp_remainder, lambert_w0, lambert_w0_log,
                      normal_tail, poisson_log_tail, poisson_tail)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TailboundError", "DomainError", "RangeError", "NumericalError",
    "ConstructionError",
    "lambert_w0", "lambert_w0_log", "bennett_psi", "poisson_tail",
    "poisson_log_tail", "normal_tail", "exp_remainder",
    "BoundParams", "MixtureRV", "TwoPointRV", "mixture_mgf", "mixture_tail",
    "two_point_palpha_closed", "two_point_pinf_closed",
    "PosMomentMethod", "SlowDecayWarning", "pos_moment",
    "pos_moment_mixture_series", "pos_moment_laplace", "pos_moment_charfn",
    "pos_moment_poisson_local", "mixture_shifted_moments",
    "TailBoundResult", "SummandBudget", "EffectiveEpsilon",
    "bh", "bh_exp", "pu_exp", "pu", "pu_numeric", "m_function", "solve_t_x",
    "p_alpha", "be", "pin", "ca", "en", "c_const", "plc_poisson_tail",
    "plc_mixture_upper", "lc3_bound", "effective_epsilon", "ea",
    "alpha_x_split",
    "SumSpec", "TestFunction", "MCEstimate", "extremal_two_point",
    "extremal_sum_spec", "enumerate_expectation", "mixture_expectation_f",
    "mc_tail", "mc_expectation", "random_sum_spec", "hp_counterexample_gap",
]
