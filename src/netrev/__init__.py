"""netrev: revenue-maximizing marketing strategies on social networks.

Expected revenue under the uniform additive valuation model, classic and
generalized influence-and-exploit strategies, a semidefinite relaxation
with randomized rotation rounding, exhaustive/multistart ground-truth
oracles, numeric ratio certificates, and a Monte Carlo simulator.
"""

from .netmodel import (GADGET_KINDS, GADGET_SELECTION_NODES, ParseError,
                       SocialNetwork, UnsupportedOperationError,
                       ValidationError, eliminate_selfloops, gadget, generate,
                       load_network, network_from_json, save_network)
from .revenue import (GeneralizedIEStrategy, IEStrategy, MarketingStrategy,
                      MyopicQuote, RandomIEStrategy, RevenueBounds,
                      class_moments, generalized_ie_revenue,
                      ie_coefficients_batch, ie_revenue, ie_revenue_batch,
                      ie_revenue_coefficients, myopic_price,
                      price_for_probability, pricing_classes,
                      random_ie_revenue, revenue_bounds, strategy_family,
                      strategy_from_json, strategy_revenue)
from .strategies import (DIRECTED_ROUNDING, SIX_CLASS_PRESET_Q,
                         TUNED_EXPLOIT_PROB, UNDIRECTED_ROUNDING,
                         UNDIRECTED_ROUNDING_FLAT, RoundedIE,
                         RoundingSchedule, TunedIE, class_ratio,
                         class_ratio_terms, default_rounding_schedule,
                         generalized_ie, ie_baseline, ie_bipartite, ie_tuned,
                         optimize_class_assignment, piecewise_rounding_alpha,
                         round_to_ie, rounding_expected_revenue)
from .sdprelax import (DIRECTED_SDP_GAMMA, DIRECTED_SDP_PRICING,
                       UNDIRECTED_SDP_GAMMA, UNDIRECTED_SDP_PRICING,
                       SdpIEResult, SdpProblem, SdpRound, SdpSolution,
                       UnrealizableTripleError, build_sdp, rotate,
                       rotated_pair_angle, round_hyperplane, sdp_ie,
                       solve_sdp)
from .oracle import (OracleReport, SimulationReport, best_ie_exhaustive,
                     best_ordering_exhaustive, best_strategy_search,
                     gadget_revenue_table, simulate)
from .certificates import (CERTIFICATE_KINDS, CertificateReport,
                           ratio_certificate)

__version__ = "0.1.0"

__all__ = [
    "CERTIFICATE_KINDS", "CertificateReport", "DIRECTED_ROUNDING",
    "DIRECTED_SDP_GAMMA", "DIRECTED_SDP_PRICING", "GADGET_KINDS",
    "GADGET_SELECTION_NODES", "GeneralizedIEStrategy", "IEStrategy",
    "MarketingStrategy", "MyopicQuote", "OracleReport", "ParseError",
    "RandomIEStrategy", "RevenueBounds", "RoundedIE", "RoundingSchedule",
    "SIX_CLASS_PRESET_Q", "SdpIEResult", "SdpProblem", "SdpRound",
    "SdpSolution",
    "SimulationReport", "SocialNetwork", "TUNED_EXPLOIT_PROB", "TunedIE",
    "UNDIRECTED_ROUNDING", "UNDIRECTED_ROUNDING_FLAT", "UNDIRECTED_SDP_GAMMA",
    "UNDIRECTED_SDP_PRICING", "UnrealizableTripleError",
    "UnsupportedOperationError", "ValidationError", "best_ie_exhaustive",
    "best_ordering_exhaustive",
    "best_strategy_search", "build_sdp", "class_moments", "class_ratio",
    "class_ratio_terms", "default_rounding_schedule", "eliminate_selfloops",
    "gadget", "gadget_revenue_table", "generalized_ie",
    "generalized_ie_revenue", "generate",
    "ie_baseline", "ie_bipartite", "ie_coefficients_batch", "ie_revenue",
    "ie_revenue_batch", "ie_revenue_coefficients", "ie_tuned", "load_network",
    "myopic_price", "network_from_json", "optimize_class_assignment",
    "piecewise_rounding_alpha", "price_for_probability",
    "pricing_classes",
    "random_ie_revenue", "ratio_certificate", "revenue_bounds", "rotate",
    "rotated_pair_angle", "round_hyperplane", "round_to_ie",
    "rounding_expected_revenue", "save_network", "sdp_ie", "simulate",
    "solve_sdp", "strategy_family", "strategy_from_json", "strategy_revenue",
]
