"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single except clause, while still
distinguishing configuration mistakes from simulation-time failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An object was constructed with inconsistent or out-of-range parameters."""


class CapacityError(ReproError):
    """A request exceeded a modelled hardware capacity (memory, nodes, storage)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class ConvergenceError(ReproError):
    """An iterative algorithm (training, Monte Carlo, GA) failed to converge."""


class TaxonomyError(ReproError, KeyError):
    """An unknown motif, domain, program, or other taxonomy label was used."""


class CorruptLog(ReproError):
    """A :mod:`repro.segmentlog` log is damaged beyond a torn final line."""


class ServiceError(ReproError):
    """Base class for campaign-service failures (server, client, protocol)."""


class Saturated(ServiceError):
    """The service shed load: a bounded queue was full and the request was
    rejected rather than buffered without bound. Clients should back off and
    retry under their :class:`~repro.resilience.retry.RetryPolicy`."""


class LeaseExpired(ServiceError):
    """A session acted on a lease it no longer holds (expired or requeued)."""


class ProtocolError(ServiceError):
    """A malformed request or response crossed the service wire protocol."""
