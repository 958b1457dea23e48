"""Exception hierarchy for the revisionist-simulations library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch everything from this package with a single handler while
still being able to distinguish model violations (bugs in a *protocol under
test*, which the library is designed to surface) from usage errors (bugs in
the *caller's* code).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """The shared-memory model was violated (e.g. a step applied out of turn)."""


class ProtocolError(ReproError):
    """A protocol under test misbehaved structurally.

    Raised when a protocol breaks the alternating scan/update normal form,
    updates a component outside the declared register range, or decides an
    invalid value type.  This is distinct from a *safety violation* (wrong
    outputs), which is reported by the analysis tools as data, not raised.
    """


class SchedulerError(ReproError):
    """A scheduler requested a step from a crashed or terminated process."""


class SimulationError(ReproError):
    """The revisionist simulation reached a state the paper proves unreachable.

    Seeing this exception on a *correct* protocol input indicates a bug in the
    simulation machinery itself; seeing it on an under-provisioned protocol is
    the expected falsifier outcome.
    """


class DivergenceError(ReproError):
    """An execution exceeded its step budget without the required progress.

    Used by falsifier experiments to report that a protocol (or a simulation
    of it) failed to terminate within the configured bound, which is the
    finite-run signature of a liveness violation.
    """

    def __init__(self, message: str, steps_taken: int = 0):
        super().__init__(message)
        self.steps_taken = steps_taken


class ValidationError(ReproError):
    """Invalid argument values supplied to a public API entry point."""


class CheckpointError(ReproError):
    """A campaign checkpoint could not be used.

    Raised when a checkpoint journal is missing a header, truncated or
    corrupted mid-record, carries a ``schema_version`` this code does
    not understand, or describes a different campaign (job fingerprint,
    unit count, or chunk size mismatch) than the one being resumed.
    A checkpoint that cannot be trusted must fail loudly rather than
    silently skip or repeat work.
    """


class CertificateError(ReproError):
    """A result certificate could not be built or used.

    Raised when a certificate payload contains values that have no
    canonical JSON form, when a serialized certificate is structurally
    malformed, or when a protocol/task/spec has no registered
    descriptor.  Note that a certificate that *fails verification* is
    not an exception: the verifier returns a structured rejection
    (:class:`~repro.certify.verify.Verdict`) so campaigns can treat a
    bad certificate as a retryable chunk failure, not a crash.
    """


class CampaignError(ReproError):
    """A strict campaign finished with permanently failed chunks.

    Only raised when ``strict=True`` was requested: the default
    contract is graceful degradation — the campaign completes with a
    partial report that names the missing unit ranges.  The partial
    :class:`~repro.campaign.engine.CampaignResult` is attached as
    ``result`` so callers can still inspect what did complete.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class BenchSchemaError(ReproError):
    """A benchmark artifact failed schema validation.

    Raised when a ``BENCH_*.json`` file is missing, malformed, or carries
    a ``schema_version`` this harness does not understand.  The
    comparator treats it as a hard failure: a baseline that cannot be
    read must fail the regression gate rather than silently pass it.
    """
