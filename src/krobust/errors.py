"""Exception types shared across the package."""


class KRobustError(Exception):
    """Base class for all library errors."""


class MalformedSchedule(KRobustError):
    """A schedule violates one of its structural invariants."""


class TrivialInstance(KRobustError):
    """The final-day cardinality bound makes the instance trivial (value 0)."""


class MissingResidual(KRobustError):
    """A plan lacks a residual entry for some ground unit."""

    def __init__(self, unit):
        super().__init__(f"no residual entry for ground unit {unit!r}")
        self.unit = unit


class UnknownEdge(KRobustError):
    """An edge id does not exist in the graph."""


class Infeasible(KRobustError):
    """The instance admits no feasible solution (e.g. an uncoverable element)."""


class Disconnected(Infeasible):
    """Vertices or terminal pairs that must be connected are not."""


class TooLarge(KRobustError):
    """The instance exceeds the oracle's exhaustive-search size limits."""


class BadParameters(KRobustError):
    """Generator parameters are outside their documented ranges."""


class InstanceFormatError(KRobustError):
    """An instance document failed to parse; carries the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.detail = message


class FieldError(KRobustError):
    """A model constructor rejected one field of its input.  field is that
    field's path, spelt as an instance document spells it, below the part of
    the document the constructor reads (e.g. "edges[1][2]" of a graph,
    "lambda[2]" of a schedule), so a document parser names it by prefixing
    that part's path."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class BadGraphField(FieldError, ValueError):
    """An edge, pair or root of a graph is out of range or malformed."""


class BadSchedule(FieldError, MalformedSchedule):
    """A schedule, or the parts of a subset uncertainty model over it,
    breaks one of its rules."""


class BadSetField(FieldError, Infeasible):
    """A set's cost or member is out of range, or no set covers an element."""


class InvariantViolation(KRobustError):
    """An internal guarantee of an algorithm failed to hold."""
