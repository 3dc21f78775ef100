"""Non-interactive locally private estimation, ERM, and query release.

Everything here simulates one-shot protocols: each player sends a single
privatized message, and the server post-processes the pooled messages into
an average, a fitted model, or a reusable query-answer table. Import names
from their submodules, e.g. ``from ldp_erm.primitives import ldp_avg_1d``.
"""

__version__ = "0.1.0"

from . import (bernstein_erm, datasets, errors, geometry, glm_erm, harness,
               polyapprox, primitives, query_release, sigm)
