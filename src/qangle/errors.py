"""Exception hierarchy shared by all qangle modules.

Every domain error derives from :class:`QAngleError` and carries a stable
``code`` string that the CLI emits in its error JSON.
"""


class QAngleError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class SchemaError(QAngleError):
    """A JSON value has the wrong type or shape for its field, or is missing."""

    code = "schema"


class DimensionError(QAngleError):
    """Operands live in spaces of different (or unsupported) dimensions."""

    code = "dimension-mismatch"


class DegenerateVectorError(QAngleError):
    """A raw vector is too close to zero to define a line."""

    code = "degenerate-vector"


class DegeneratePairError(QAngleError):
    """Two lines coincide where a genuine pair is required."""

    code = "degenerate-pair"


class DegenerateTripleError(QAngleError):
    """A triple of lines contains coincidences where three distinct lines are required."""

    code = "degenerate-triple"


class NotCollinearError(QAngleError):
    """Three lines do not span a subspace of dimension at most two."""

    code = "not-collinear"


class ParameterError(QAngleError):
    """A numeric parameter violates its stated constraints."""

    code = "parameter"


class RangeError(QAngleError):
    """The fixed angle is outside the range required by a classification operation."""

    code = "range"


class DomainError(QAngleError):
    """An evaluation point lies outside the domain of the requested function."""

    code = "domain"


class WitnessRangeError(QAngleError):
    """The witness offset parameter is too large for the guard inequalities to hold."""

    code = "witness-range"


class CaseError(QAngleError):
    """Parameters fall in the wrong branch of a case split for the requested construction."""

    code = "case"


class SpanError(QAngleError):
    """Two bases do not span the same two-dimensional subspace."""

    code = "span"


class NotAWignerMapError(QAngleError):
    """Probe images are inconsistent with every unitary or antiunitary operator.

    Attributes:
        probe_index: index (in probe enumeration order) of the worst-fitting probe.
        residual: angular residual of that probe under the best candidate operator.
    """

    code = "not-a-wigner-map"

    def __init__(self, message: str, probe_index: int, residual: float):
        super().__init__(message)
        self.probe_index = probe_index
        self.residual = residual
