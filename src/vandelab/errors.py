"""Exception hierarchy for the laboratory.

Every failure mode callers are expected to branch on gets its own class;
all of them derive from VandelabError so `except VandelabError` catches
anything raised by this package on purpose.
"""


class VandelabError(Exception):
    """Base class for all errors raised deliberately by vandelab."""


class InvalidParameterError(VandelabError, ValueError):
    """An argument violates a documented precondition (range, sign, size)."""


class DegenerateInputError(VandelabError, ValueError):
    """Input is structurally degenerate, e.g. duplicate nodes."""


class ConfigValidationError(VandelabError, ValueError):
    """A node set does not satisfy the clustered-configuration conditions.

    Carries the offending pair of node indices and which condition failed,
    when that information exists.
    """

    def __init__(self, message, pair=None, condition=None):
        super().__init__(message)
        self.pair = pair
        self.condition = condition


class PrecisionError(VandelabError, ArithmeticError):
    """Working precision is insufficient for the requested computation;
    headroom_bits, if not None, is the floor(log2(lambda_min /
    error_bound)) <= 0 of a positive eigenvalue that did not clear it."""

    def __init__(self, message, headroom_bits=None):
        super().__init__(message)
        self.headroom_bits = headroom_bits


class ConvergenceError(VandelabError, RuntimeError):
    """Iteration failed to converge; carries the final residual."""

    def __init__(self, message, residual=None, sweeps=None):
        super().__init__(message)
        self.residual = residual
        self.sweeps = sweeps


class ResourceLimitError(VandelabError, RuntimeError):
    """A computation would exceed its configured sample or memory budget."""


class ConfigParseError(VandelabError, ValueError):
    """A configuration file or JSON document could not be interpreted.

    `key` names the offending field when known.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
