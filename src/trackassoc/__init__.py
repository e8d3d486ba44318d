"""Track-to-measurement association probability analytics.

Computes, approximates, and empirically verifies the probability that a batch
least-squares track on a constant-velocity target keeps the correct
measurements when decoy measurements sit near the trajectory, plus a
Markov-chain view of consecutive misassociations. See README.md for the map of
the subpackages and FINDINGS.md for measured discrepancies between tabulated
closed forms and the numeric oracles.
"""

from .geometry import (DiagBlockCoeffs, GeometryError, ScanConfig, build_design,
                       build_projector, cross_alpha, cross_theta, diag_coeffs, leverage)
from .single_fa import (CostDiffLaw, IndicatorApprox, RandomLambda, closed_form_probability,
                        conditional_law, exact_probability, first_order_probability, fit_gammas,
                        random_lambda_probability)
from .multi_fa import (ClampedProbability, FalseAssocSet, MomentParams, compound_density,
                       moment_params, prob_chi2, prob_exponential, prob_normal)
from .dtmc import (AssocDTMC, chain_power, consecutive_fa_chain, expected_transient_visits,
                   mean_intervisit, reach_probability, stationary)
from .mc_oracle import (McEstimate, MomentSample, TrialPlan, sample_moments, simulate_dtmc,
                        simulate_multi_fa, simulate_single_fa)
from .quadrature import IntegrationError, adaptive_integrate, normal_upper_tail

__version__ = "0.1.0"
