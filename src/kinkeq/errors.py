"""Exception hierarchy shared across the package."""


class KinkEqError(Exception):
    """Base class for all library errors."""


class InternalError(KinkEqError):
    """A result failed its own postcondition: a library bug, not bad input."""


class SizeMismatch(KinkEqError):
    pass


class NotUnimodular(KinkEqError):
    pass


class NotPrimitive(KinkEqError):
    pass


class ZeroVector(KinkEqError):
    pass


class UnkinkShapeViolation(KinkEqError):
    pass


class InvalidTrace(KinkEqError):
    pass


class NoPositiveEigenvalue(KinkEqError):
    pass


class NonpositiveCorner(KinkEqError):
    pass


class SingularForDefiniteTarget(KinkEqError):
    pass


class NotPositiveSemidefinite(KinkEqError):
    pass


class NotPositiveDefinite(KinkEqError):
    pass


class Not2x2(KinkEqError):
    pass


class NotIntegerMatrix(KinkEqError):
    pass


class ParseError(KinkEqError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotSymmetric(ParseError):
    pass


class BadRational(ParseError):
    pass


class RegionOutOfRange(ParseError):
    pass


class SelfPairedCrossing(ParseError):
    pass


class UnknownVariable(ParseError):
    pass


class DegreeError(ParseError):
    pass


class NotUnimodularForm(KinkEqError):
    pass
