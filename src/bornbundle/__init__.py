"""Numerical checks relating Hessian structures on a manifold to the Born
structure induced on its tangent bundle."""

from .bundle import (BornFrame, BundlePoint, adapted_frame_at, born_at,
                     born_compatibility_residuals)
from .charts import (ChartMap, exponential_chart, geodesic_integrate,
                     pushforward_connection_residual)
from .errors import NotPositiveDefiniteError, SpecError, UnsupportedDerivativeError
from .expr import evaluate, free_coordinates, parse, to_text
from .integrability import (IntegrabilityReport, d_omega_at,
                            frame_bracket_residuals, integrability_verdict,
                            nijenhuis_J_identity_residuals, nijenhuis_at,
                            theorem_crosscheck)
from .manifold import (HessianVerdict, ManifoldSpec, build_spec, connection_at,
                       curvature_at, dual_connection_at, hessian_verdict,
                       levi_civita_at, metric_at, nabla_g_at, torsion_at,
                       two_of_four_residuals)

__version__ = "0.1.0"
