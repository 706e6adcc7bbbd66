"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A cluster, schedule or service configuration is inconsistent.

    Raised during construction/validation, never during simulation: a
    scenario that starts running has a valid configuration.  (Deliberately
    *not* used for job-borderline configuration faults — those are injected
    as faults and manifest as runtime symptoms, mirroring the paper.)
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid internal state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or with an invalid delay."""


class FaultInjectionError(ReproError):
    """A fault specification cannot be applied to the target cluster."""


class AnalysisError(ReproError):
    """A diagnostic or statistical analysis received unusable input."""


class JournalAliasError(ConfigurationError):
    """A second name for the run journal (``--live-log`` next to a
    different ``--checkpoint``) cannot be made a hard link to it."""
