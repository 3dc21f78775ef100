"""Non-interactive locally private estimation, ERM, and query release.

Everything here simulates one-shot protocols: each player sends a single
privatized message, and the server post-processes the pooled messages into
an average, a fitted model, or a reusable query-answer table.
"""

__version__ = "0.1.0"

from .errors import (ClippingWarning, ConfigurationError, EstimationError,
                     LdpErmError, ParameterError, ProtocolError,
                     QueryClassError, SampleSizeWarning)
from .geometry import BallConstraint, BoxConstraint
from .primitives import (PrivacyBudget, Transcript, avg_error_bound,
                         ldp_avg_1d, ldp_avg_vec, onebit_decode,
                         onebit_encode_many)
from .polyapprox import (BernsteinOperatorSpec, SmoothedPlus,
                         build_or_polynomial, chebyshev_eval,
                         iterated_bernstein_eval, lemma40_reconstruct)
from .datasets import (BallDataset, BinaryDataset, BoxDataset, CubeDataset,
                       generate_dataset)
from .bernstein_erm import (GridProtocolConfig, alg2_run, alg3_run,
                            grid_points, recommended_k)
from .sigm import SigmSchedule, sigm_run
from .glm_erm import (GradientOracleConfig, glm_erm_run,
                      glm_player_encode, hinge_flavor,
                      hinge_via_general_flavor)
from .query_release import (marginals_answer, marginals_release,
                            smooth_query_coefficients, smooth_release,
                            smooth_release_and_answer)
from .harness import ExperimentConfig, load_config, run_experiment

__all__ = [
    "__version__",
    "LdpErmError", "ParameterError", "ConfigurationError", "ProtocolError",
    "EstimationError", "QueryClassError", "SampleSizeWarning",
    "ClippingWarning",
    "BoxConstraint", "BallConstraint",
    "PrivacyBudget", "Transcript", "ldp_avg_1d", "ldp_avg_vec",
    "avg_error_bound", "onebit_encode_many", "onebit_decode",
    "BernsteinOperatorSpec", "iterated_bernstein_eval", "chebyshev_eval",
    "SmoothedPlus", "build_or_polynomial", "lemma40_reconstruct",
    "CubeDataset", "GridProtocolConfig", "alg2_run", "alg3_run",
    "grid_points", "recommended_k",
    "SigmSchedule", "sigm_run",
    "BallDataset", "GradientOracleConfig", "glm_player_encode", "glm_erm_run",
    "hinge_flavor", "hinge_via_general_flavor",
    "BinaryDataset", "BoxDataset", "marginals_release", "marginals_answer",
    "smooth_query_coefficients", "smooth_release", "smooth_release_and_answer",
    "generate_dataset",
    "ExperimentConfig", "load_config", "run_experiment",
]
