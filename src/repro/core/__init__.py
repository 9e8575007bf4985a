"""SWAT core: the approximation tree, query model, and error analysis."""

from .coverage import Cover, CoverageError, build_cover
from .engine import QueryEngine
from .errors import (
    drift_segment_errors,
    exponential_level_bound,
    exponential_query_bound,
    linear_level_bound,
    linear_query_bound,
)
from .multi import StreamEnsemble
from .node import Role, SwatNode
from .plan import PlanStep, QueryPlan, compile_plan, phase_of
from .queries import (
    InnerProductQuery,
    RangeQuery,
    exponential_query,
    linear_query,
    point_query,
)
from .swat import QueryAnswer, Swat

__all__ = [
    "Swat",
    "QueryAnswer",
    "QueryEngine",
    "QueryPlan",
    "PlanStep",
    "compile_plan",
    "phase_of",
    "StreamEnsemble",
    "SwatNode",
    "Role",
    "Cover",
    "CoverageError",
    "build_cover",
    "InnerProductQuery",
    "RangeQuery",
    "point_query",
    "exponential_query",
    "linear_query",
    "exponential_level_bound",
    "exponential_query_bound",
    "linear_level_bound",
    "linear_query_bound",
    "drift_segment_errors",
]
