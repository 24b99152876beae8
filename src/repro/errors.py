"""Exception hierarchy for the repro column store.

All library errors derive from :class:`ReproError` so that callers can catch
a single base class.  Each subclass corresponds to one layer of the system.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(ReproError):
    """Problems with columns, tables, or the catalog."""


class AlignmentError(StorageError):
    """Partition boundary misalignment during tuple reconstruction.

    Raised when a candidate list refers to row ids outside the slice of the
    column being projected and the requested alignment policy forbids
    trimming (paper Section 2.3, Figures 9 and 10).
    """


class PlanError(ReproError):
    """Malformed plan graphs: cycles, wrong arity, dangling inputs."""


class OperatorError(ReproError):
    """An operator received inputs it cannot evaluate."""


class SchedulerError(ReproError):
    """Inconsistencies detected by the discrete-event scheduler."""


class MutationError(ReproError):
    """A plan mutation could not be applied."""


class ConvergenceError(ReproError):
    """The adaptive convergence driver was misused."""


class ClusterError(ReproError):
    """Invalid cluster topology, placement, or sharded-plan structure."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlLexError(SqlError):
    """Invalid token in a SQL query string."""


class SqlParseError(SqlError):
    """Syntactically invalid SQL for the supported subset."""


class SqlPlanError(SqlError):
    """Semantically invalid SQL (unknown table/column, bad types)."""


class WorkloadError(ReproError):
    """Workload generation or query lookup failed."""


class ChaosError(ReproError):
    """Fault-injection configuration or usage errors."""


class ObserveError(ReproError):
    """Misuse of the tracing/metrics observability layer."""


class AnalysisError(ReproError):
    """Misuse of the codebase static analyzer (bad paths, bad baseline)."""


class UncertifiedKernelError(ReproError):
    """The evaluation pool refused to dispatch an uncertified kernel.

    Raised fail-closed: an operator whose parallel-safety certificate is
    missing, or whose static analysis found effects, is never evaluated
    off the main thread.  Run with ``workers=1`` or fix the kernel and
    re-certify (see ``docs/static_analysis.md``).
    """


class BackendUnavailableError(ReproError):
    """The requested evaluation backend does not exist.

    Raised when backend resolution names anything but ``inline`` or
    ``thread``.  Callers choose one of those explicitly -- nothing
    falls back silently.
    """


class SanitizerError(ReproError):
    """The runtime sanitizer detected a violated execution invariant.

    An operator mutated a shared input buffer in place, results were
    committed out of dispatch order, or two runs that must be
    bit-identical produced diverging trace fingerprints.
    """


class LearnError(ReproError):
    """Misuse of the learned-DOP layer (experience store, policies).

    Unknown policy names, invalid store capacities, or malformed
    records passed to :class:`repro.learn.ExperienceStore`.  A corrupt
    experience *file* on disk is deliberately NOT an error: warm-start
    is an optimization hint, so the store loads what it can, warns, and
    the adaptive driver falls back to cold convergence.
    """


class ServeError(ReproError):
    """Misuse of the SQL service layer (tenants, scheduler, server).

    Unknown tenants or SLO classes, invalid weights/caps, or server
    lifecycle misuse (querying a stopped server).  Client-visible
    failures (bad SQL, rejected admission) travel as protocol error
    *responses*, not exceptions -- a misbehaving client must never take
    the server down.
    """


class ProtocolError(ServeError):
    """A malformed wire message (framing, JSON, or schema violation).

    Raised by :mod:`repro.serve.protocol` decoders; the server answers
    with an error response and, for framing violations that poison the
    stream (oversized or non-JSON lines), closes the connection.
    """


class FramingError(ProtocolError):
    """A wire violation that poisons the byte stream itself.

    Oversized, empty, or non-JSON lines: after answering (when
    possible) the server closes the connection, because resynchronizing
    a newline-delimited stream after garbage is guesswork.  Schema
    violations inside a well-framed JSON object raise plain
    :class:`ProtocolError` and keep the connection alive.
    """


class AdmissionError(ServeError):
    """A query was refused by admission control (tenant queue full).

    Carries the tenant so callers can count the reject against the
    right session; the load generator treats it as shed load, not as a
    failure.
    """

    def __init__(self, message: str, *, tenant: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant


class InjectedFaultError(ReproError):
    """A deliberately injected operator failure (chaos testing).

    Carries enough context (submission, node, simulated time) for a
    resilience layer to decide whether to retry; distinct from
    :class:`OperatorError` so genuine engine bugs are never retried as
    if they were injected chaos.
    """

    def __init__(self, message: str, *, sid: int = -1, nid: int = -1,
                 when: float = 0.0) -> None:
        super().__init__(message)
        self.sid = sid
        self.nid = nid
        self.when = when
