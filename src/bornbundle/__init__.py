"""Numerical checks relating Hessian structures on a manifold to the Born
structure induced on its tangent bundle."""

from .charts import ChartMap, exponential_chart
from .errors import NotPositiveDefiniteError, SpecError
from .expr import evaluate, parse
from .integrability import IntegrabilityReport, integrability_verdict
from .manifold import ManifoldSpec, Residuals, build_spec

__version__ = "0.1.0"
