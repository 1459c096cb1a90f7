"""Service layer: batch execution, plan caching, pluggable executors."""

from repro.service.batch import (
    BatchEngine,
    BatchItem,
    BatchReport,
    json_sanitize,
)
from repro.service.executors import (
    EXECUTOR_KINDS,
    ProcessExecutor,
    QueryExecutor,
    SerialExecutor,
    make_executor,
)
from repro.service.fingerprint import QueryFingerprint, query_fingerprint
from repro.service.plan_cache import (
    CacheStats,
    CandidateShapeCache,
    PlanCache,
    remap_plan,
)

__all__ = [
    "BatchEngine",
    "BatchItem",
    "BatchReport",
    "CacheStats",
    "CandidateShapeCache",
    "EXECUTOR_KINDS",
    "PlanCache",
    "ProcessExecutor",
    "QueryExecutor",
    "QueryFingerprint",
    "SerialExecutor",
    "json_sanitize",
    "make_executor",
    "query_fingerprint",
    "remap_plan",
]
