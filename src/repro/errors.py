"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so a
caller can catch library-specific failures without catching unrelated Python
errors.  Sub-classes separate the three broad failure categories the paper's
system can hit: bad configuration, physically infeasible requests (e.g. a
purification target above the protocol's maximum achievable fidelity), and
simulation-level failures (deadlock, unroutable traffic).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A parameter, layout or machine description is invalid."""


class FidelityError(ReproError):
    """A fidelity or error probability is out of its physical range."""


class InfeasibleError(ReproError):
    """The requested operation cannot be achieved with the given physics.

    Raised, for example, when purification cannot reach the fault-tolerance
    threshold because the operation error rate is too high (the breakdown
    regime shown in Figure 12 of the paper).
    """


class ScenarioError(ConfigurationError):
    """A declarative scenario spec is malformed or names unknown components."""


class RoutingError(ReproError):
    """A path could not be constructed between two network nodes."""


class SimulationError(ReproError):
    """The event-driven simulator reached an inconsistent state."""


class SchedulingError(ReproError):
    """The instruction scheduler detected an invalid instruction stream."""


class SweepError(ReproError):
    """One or more registry experiments failed after fault isolation.

    The sharded work queue never lets a poisoned experiment abort its
    siblings: every other experiment completes (and is cached) first, then
    :meth:`~repro.runtime.runner.ExperimentRunner.run` raises the collected
    failures as one exception.  ``errors`` maps each failed experiment's
    cache key to its structured error record (type, message, formatted
    traceback).
    """

    def __init__(self, message: str, errors: "dict[str, dict[str, object]] | None" = None):
        super().__init__(message)
        self.errors = dict(errors or {})
