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


class UnknownElement(Infeasible):
    """A set names an element outside the universe."""

    def __init__(self, sid, element):
        super().__init__(f"set {sid} contains unknown element {element}")
        self.sid = sid
        self.element = element


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
    field's path below the constructor's arguments, e.g. "edges[1][2]", so a
    document parser can name it by prefixing where the arguments came from."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class BadGraphField(FieldError, ValueError):
    """An edge, pair or root of a graph is out of range or malformed."""


class BadUncertainty(FieldError, MalformedSchedule):
    """The parts of a subset uncertainty model do not fit the instance."""


class InvariantViolation(KRobustError):
    """An internal guarantee of an algorithm failed to hold."""
