"""Exception taxonomy shared by all modules.

The CLI maps the three input kinds, InputError, DomainError and
Unsupported, to exit code 1 and InvariantViolation to exit code 2;
everything else is a bug and propagates.
"""


class InputError(ValueError):
    """Malformed or inconsistent user input."""


class DomainError(ValueError):
    """Input is well-formed but outside an operation's mathematical domain."""


class Unsupported(RuntimeError):
    """Valid input hitting a documented implementation boundary."""


class InvariantViolation(RuntimeError):
    """Two independent computation routes disagreed. Always a hard failure."""
