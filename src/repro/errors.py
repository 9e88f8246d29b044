"""Exception hierarchy for the progressive indexing library.

All exceptions raised by the library derive from :class:`ProgressiveIndexError`
so callers can catch library-specific failures with a single ``except`` clause
while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ProgressiveIndexError(Exception):
    """Base class for every error raised by this library."""


class InvalidColumnError(ProgressiveIndexError):
    """Raised when a column is constructed from unsuitable data.

    Examples include empty input, non one-dimensional arrays, or data types
    that cannot be indexed (e.g. object arrays).
    """


class UnknownColumnError(InvalidColumnError):
    """Raised when an operation references a column the table does not have.

    Subclasses :class:`InvalidColumnError` so existing callers that catch the
    broader error keep working; write paths (``insert``/``delete``/``update``)
    raise this instead of a bare ``KeyError`` when the column name is unknown.
    """


class DroppedColumnError(InvalidColumnError):
    """Raised when a write or read targets a column that has been dropped.

    A stale handle to a dropped column must fail loudly rather than silently
    accepting writes that no query will ever see.
    """


class PendingDeltaError(ProgressiveIndexError):
    """Raised by ``create_index`` on a column with foreign uncommitted deltas.

    When another session (write handle) has pending delta-store writes on the
    column, building an index would silently snapshot data the other handle
    has not committed yet.  The writing session commits its deltas with
    ``commit_writes()`` before another handle may index the column.
    """


class InvalidPredicateError(ProgressiveIndexError):
    """Raised when a query predicate is malformed (e.g. ``low > high``)."""


class InvalidBudgetError(ProgressiveIndexError):
    """Raised when an indexing budget is configured with invalid parameters.

    The budget fraction ``delta`` must lie in ``[0, 1]`` and time budgets must
    be non-negative.
    """


class IndexStateError(ProgressiveIndexError):
    """Raised when an index is driven through an illegal state transition.

    For example, asking a converged index to perform further refinement
    work, querying an index after its backing column has been released, or
    restoring a damaged checkpoint payload.
    """


#: What reading a damaged checkpoint payload raises before a check names the
#: damage; index loaders turn these into :class:`IndexStateError`.
PAYLOAD_ERRORS = (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError)


class PersistenceError(ProgressiveIndexError):
    """Raised when the durability layer meets a malformed on-disk artifact.

    Covers bad magic prefixes, truncated headers, CRC mismatches past the
    tolerated torn tail of the WAL, and checkpoint payloads that do not match
    the catalog.  Recovery never guesses: a file it cannot prove consistent
    is reported, not silently skipped.
    """


class RecoveryError(PersistenceError):
    """Raised when WAL replay or checkpoint restore cannot reach a consistent state."""


class ConcurrencyError(ProgressiveIndexError):
    """Raised when the concurrent serving layer detects a coordination bug.

    Covers a second writer trying to attach to a single-writer engine and —
    the load-bearing case — the scheduler's mutation guard observing an
    index life-cycle mutation from a thread that does not hold the index's
    exclusive work lane.  The guard turns silent state corruption under
    races into a hard, attributable failure.
    """


class ProtocolError(ProgressiveIndexError):
    """Raised when a serve-layer message violates the JSON-line protocol.

    Covers unparseable frames, oversized lines, unknown operations, and
    operations illegal for the connection's role (e.g. a reader issuing
    ``insert``).
    """


class ConnectionLostError(ProtocolError):
    """Raised by a service client whose request got no complete response.

    A timeout, a transport error or a short read after the request was sent
    leaves a reply in flight that would answer the *next* request; the client
    closes the socket instead, and every later call raises this too.
    """


class CalibrationError(ProgressiveIndexError):
    """Raised when hardware-constant calibration produces unusable values."""


class WorkloadError(ProgressiveIndexError):
    """Raised when a workload generator is configured inconsistently."""


class ExperimentError(ProgressiveIndexError):
    """Raised when an experiment driver receives an invalid configuration."""
