"""Exception types shared across the package."""


class EvoinfError(Exception):
    """Base class for all package errors."""


class PreconditionViolation(EvoinfError):
    """A topology change cannot be applied to the current graph.

    Carries the offending change and a human-readable reason.
    """

    def __init__(self, change, reason: str):
        self.change = change
        self.reason = reason
        super().__init__(f"{reason} (change: {change})")


class ParseError(EvoinfError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class InvalidProbability(EvoinfError):
    """A probability is outside [0, 1] or missing with no fill policy."""


class UnknownNode(EvoinfError):
    """A referenced node is not present in the graph."""


class TooLarge(EvoinfError):
    """Input exceeds the size cap of an exhaustive computation."""


class EmptyGraph(EvoinfError):
    """Selection requested on a graph with no nodes."""


class InsufficientSeeds(EvoinfError):
    """A previous seed list is shorter than K and padding is disabled."""


class InvalidConfig(EvoinfError):
    """A configuration value (generator field or option) is out of range."""


class ScenarioError(EvoinfError):
    """Benchmark scenario file is missing or has an invalid field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"scenario field '{field}': {message}")
