"""GSI core: signatures, filtering, planning, and the vertex join."""

from repro.core.config import GSIConfig
from repro.core.engine import GSIEngine
from repro.core.filtering import filter_candidates, label_degree_candidates
from repro.core.plan import (
    JoinPlan,
    JoinStep,
    plan_join_order,
    select_first_edge,
)
from repro.core.result import MatchResult, PhaseBreakdown
from repro.core.set_ops import CandidateSet
from repro.core.signature import (
    encode_all,
    encode_rows,
    encode_vertex,
)
from repro.core.signature_table import SignatureTable

__all__ = [
    "GSIConfig",
    "GSIEngine",
    "filter_candidates",
    "label_degree_candidates",
    "JoinPlan",
    "JoinStep",
    "plan_join_order",
    "select_first_edge",
    "MatchResult",
    "PhaseBreakdown",
    "CandidateSet",
    "encode_all",
    "encode_rows",
    "encode_vertex",
    "SignatureTable",
]
