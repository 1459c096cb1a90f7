"""Exception hierarchy for the GSI reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Invalid graph construction or query (bad vertex id, bad label...)."""


class StorageError(ReproError):
    """A graph storage structure was built or probed inconsistently."""


class PlanError(ReproError):
    """The join planner could not produce a valid vertex order."""


class ConfigError(ReproError):
    """An engine configuration value is out of its documented range."""


class BudgetExceeded(ReproError):
    """A simulated-time or operation budget was exhausted mid-query.

    Engines raise this internally and convert it into a ``timed_out``
    result; it escapes only if the caller invokes low-level pieces
    directly with a budget attached, or when
    ``StreamEngine.register``'s seeding match times out (an empty
    timed-out result must not become a continuous query's live set).
    """


class StreamStateError(ReproError):
    """A stream engine refused a call because an earlier update batch
    failed after its commit: its artifacts may be only partly
    maintained, so it serves nothing more (build a new engine)."""
