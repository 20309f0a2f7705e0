"""Exception types shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ProgramError(ReproError):
    """A program is malformed (bad label, bad operand, unresolved target)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state.

    This always indicates a bug in the model (or a malformed program that
    slipped through validation), never an expected runtime condition.
    """


class ConfigError(ReproError):
    """A machine or profiler configuration is invalid."""


class AnalysisError(ReproError):
    """A profile analysis was asked to do something impossible."""


class RelocationError(AnalysisError):
    """A program cannot be safely relocated.

    Raised by the relocation-safety validator
    (:mod:`repro.isa.relocation`) before any code-moving transformation
    (function reordering, instruction insertion) touches a program whose
    control flow depends on absolute code addresses.  ``pcs`` names the
    offending instructions so the error is actionable.
    """

    def __init__(self, message, pcs=()):
        super().__init__(message)
        self.pcs = tuple(pcs)


class PersistenceError(AnalysisError):
    """A stored profile/result document is unreadable or malformed.

    Raised for every load failure mode — unreadable file, corrupt or
    truncated JSON (an interrupted write), wrong format/version, missing
    fields — so callers never see a raw ``OSError``/``KeyError``/
    ``JSONDecodeError`` and a bad document can never load silently.
    Subclasses :class:`AnalysisError` so pre-existing handlers keep
    working.
    """


class ServiceError(ReproError):
    """The continuous-profiling service failed (server or client side)."""


class ProtocolError(ServiceError):
    """A wire frame violated the profiling-service protocol.

    Covers framing faults (truncated or oversized frames, non-JSON
    payloads), version mismatches, and malformed messages.
    """


class SweepError(ReproError):
    """A sweep was misconfigured or its checkpoint store is unusable."""
