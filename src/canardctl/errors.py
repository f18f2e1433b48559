"""Exception types shared across the package.

Numerical guards raise typed errors instead of returning inf/nan so that the
integrator can convert them into fault events and the CLI can map them onto
exit codes; every integration fault is an IntegrationError with a status.
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "ExponentOverflowError",
    "SingularConfigurationError",
    "ExtrapolationError",
    "IntegrationError",
    "PatternDeviationError",
    "ConfigError",
]


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ExponentOverflowError(OverflowError):
    """An exponent left the safe range for exp() before exponentiation, or
    the term it weights left floating-point range below that guard.

    Carries the symbolic name of the offending exponent and its value; the
    guard trips at |exponent| > 700, below the IEEE double limit of ~709.
    """

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        what = ("exceeds the safe range (700)" if value > 700.0
                else "takes its term out of floating-point range")
        super().__init__(f"exponent {name} = {value:.6g} {what}")


class SingularConfigurationError(ValueError):
    """A controller was evaluated at a configuration where it is singular."""


class ExtrapolationError(RuntimeError):
    """A limit extrapolation did not converge; carries the raw sequence."""

    def __init__(self, message: str, values=None):
        self.values = tuple(values) if values is not None else ()
        super().__init__(message)


class IntegrationError(RuntimeError):
    """Integration could not finish; carries the partial trajectory and the
    ``status`` a run leaves in metrics.json.

    ``integrate`` raises an ``overflow-fault`` (an OverflowError of the
    controller, the field or a watcher), a ``step-underflow`` (the step
    fell below min_step: a stiffness fault) or a ``step-limit`` (max_steps
    ran out); a runner's own fault is an ``integration-fault``.
    """

    def __init__(self, message: str, trajectory=None,
                 status: str = "integration-fault"):
        self.trajectory = trajectory
        self.status = status
        super().__init__(message)


class PatternDeviationError(RuntimeError):
    """A loop was classified contrary to the requested pattern segment.

    ``achieved`` holds the loop labels realized before the deviation,
    ``expected``/``got`` the label mismatch, ``trajectory`` the run so far.
    """

    def __init__(self, expected: str, got: str, achieved, trajectory=None):
        self.expected = expected
        self.got = got
        self.achieved = tuple(achieved)
        self.trajectory = trajectory
        super().__init__(
            f"loop {len(self.achieved) + 1} classified {got}, "
            f"pattern expects {expected}"
        )


class ConfigError(ValueError):
    """An experiment configuration failed validation."""
