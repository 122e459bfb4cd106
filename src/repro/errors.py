"""Exception hierarchy for the OI-RAID reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DesignError(ReproError):
    """A combinatorial design is invalid or cannot be constructed."""


class NoSuchDesignError(DesignError):
    """No construction is known (or exists) for the requested parameters."""


class CodingError(ReproError):
    """An erasure-coding operation failed."""


class DecodeError(CodingError):
    """Lost data could not be reconstructed from the surviving symbols."""


class LayoutError(ReproError):
    """A data layout is invalid or was given inconsistent parameters."""


class DiskError(ReproError):
    """A simulated-disk operation failed."""


class DiskFailedError(DiskError):
    """An I/O was issued to a disk that is in the failed state."""


class AddressError(DiskError):
    """An I/O referenced an offset outside the device's address space."""


class LatentSectorError(DiskError):
    """A read touched a sector the device can no longer return."""


class ArrayError(ReproError):
    """An array-level operation failed."""


class DataLossError(ArrayError):
    """The failure pattern exceeds the code's correction capability."""


class SimulationError(ReproError):
    """A simulation was configured inconsistently or reached a bad state."""


class ParameterError(ReproError, ValueError):
    """A numeric argument is out of range.

    Also a ``ValueError`` — what :mod:`repro.util.checks` has always
    raised for a bad value — so callers catching either keep working
    while the CLI reports it like every other library error.
    """


class TelemetryError(ReproError):
    """A telemetry artifact (metrics/trace document) is malformed."""
