"""Exception types shared across the package.

Plain precondition violations (bad argument values, shape mismatches) raise
``ValueError``; the classes below cover failures that callers are expected
to catch and react to.
"""


class LhsAttackError(Exception):
    """Base class for package-specific failures."""


class DegenerateSampleError(LhsAttackError):
    """A sample batch contained an all-zero row; the caller should re-draw."""


class EstimateDegenerateError(LhsAttackError):
    """Gradient estimate collapsed to zero twice in a row (mixed decisions)."""


class StepFailedError(LhsAttackError):
    """Every step candidate landed on the non-adversarial side."""


class InitFailedError(LhsAttackError):
    """No adversarial starting point was found."""


class OracleFailedError(LhsAttackError):
    """The decision oracle stopped answering (external process died/timed out)."""


class ProtocolError(OracleFailedError):
    """Malformed data on the external oracle line protocol.

    A specialization of :class:`OracleFailedError`: a garbled reply aborts a
    run exactly the way a dead oracle process does.
    """


class WeightsFormatError(LhsAttackError):
    """MLP weights file failed to parse or violated shape invariants."""


class CapabilityError(LhsAttackError):
    """The oracle kind does not support the requested operation."""


class QueryBudgetExceededError(LhsAttackError):
    """The hard query cap was reached before the next oracle call."""


class ConfigError(LhsAttackError):
    """Invalid experiment configuration; message names the offending key."""
