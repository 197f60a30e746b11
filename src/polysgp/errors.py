"""Exception types shared across the package."""


class PolysgpError(Exception):
    """Base class for all package errors."""


class DegenerateInput(PolysgpError):
    """Input points do not span a full-dimensional body."""


class OriginInside(PolysgpError):
    """The origin lies in the polytope, so the semigroup is the whole
    integer cone and none of the structural machinery applies."""


class OutsideCone(PolysgpError):
    """Query point is not in the cone spanned by the polytope."""


class AssumptionViolated(PolysgpError):
    """A geometric invariant the construction relies on failed to hold."""


class UnsupportedCase(PolysgpError):
    """Configuration outside the cases the implemented theory covers."""


class NotSimplicial(UnsupportedCase):
    """The cone has more than three extremal rays."""


class NotAGap(PolysgpError):
    """A point expected to lie outside the semigroup is a member."""


class BadParameter(PolysgpError):
    """Parameter outside the documented domain."""


class BoxTooSmall(PolysgpError):
    """Scan box cannot certify the requested computation."""


class ParseError(PolysgpError):
    """Malformed input document.  Carries the 1-based source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)
        self.line = line
        self.column = column
