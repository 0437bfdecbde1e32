"""Exception types shared across the package.

Everything raised for a *domain* reason (bad graph, inapplicable criterion,
oversized enumeration, ...) derives from SandpileError so the CLI can map it
to a structured error report and exit code 1.
"""


class SandpileError(Exception):
    """Base class for all domain errors."""


class InvariantError(SandpileError):
    """A certificate that a computed result must satisfy (feasibility,
    minimality, non-negativity, active-set progress) failed; the engine
    that produced the result is at fault, not the input."""


# graph construction
class EmptyGraphError(SandpileError):
    """Fewer than two vertices."""


class SelfLoopError(SandpileError):
    """A vertex has an edge to itself."""


class DisconnectedError(SandpileError):
    """The multigraph is not connected."""


class IndexOutOfRangeError(SandpileError):
    """A vertex or matrix index is out of range."""


class SizeTooSmallError(SandpileError):
    """A graph-family parameter is below the family's minimum size."""


class InvalidSandpileError(SandpileError):
    """A sandpile vector has the wrong length or a negative entry."""


# input formats
class UnknownFixtureError(SandpileError):
    """No named fixture has the given name."""


class GraphFormatError(SandpileError):
    """A graph JSON object lacks integer "vertices", "sink" or "edges"."""


class InvalidBoxError(SandpileError):
    """A survey box is not lo:hi with integer or degree-relative bounds."""


# odometers
class InvalidGroupError(SandpileError):
    """The coefficient group is not z, r, or q:<m> with an integer m >= 1."""


# exact linear algebra
class NotSquareError(SandpileError):
    """A square matrix was required."""


class SingularMatrixError(SandpileError):
    """The matrix is singular over the rationals."""


class NotIntegralError(SandpileError):
    """An integer matrix was required."""


# forest enumeration
class SizeMismatchError(SandpileError):
    """Two index sets that must have equal size do not."""


class TooLargeError(SandpileError):
    """Enumeration would visit more than the guard limit of candidates."""


class SinkNotAllowedError(SandpileError):
    """The sink vertex is not a valid argument here."""


# classification criteria
class NotUniformlyLargeError(SandpileError):
    """The criterion requires sigma >= degree - 1 everywhere."""


class NotConeOfRegularError(SandpileError):
    """The graph is not the cone of a regular graph with sink at the apex."""


class CriterionInapplicableError(SandpileError):
    """Neither branch of the cone criterion applies to this sandpile."""


class NotTreeError(SandpileError):
    """The graph is not a tree."""


class NotPowerOfTwoError(SandpileError):
    """The rim size is not a power of two with exponent >= 2."""


class HypothesesFailError(SandpileError):
    """The mutable-sandpile construction hypotheses fail at the given vertex.

    ``failed`` lists which of "adjacency", "a" (detour paths to the sink),
    "b" (degree >= 2) did not hold.
    """

    def __init__(self, vertex, failed):
        self.vertex = vertex
        self.failed = tuple(failed)
        super().__init__(
            f"vertex {vertex} fails hypothesis(es): {', '.join(self.failed)}"
        )
