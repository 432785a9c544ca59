"""Exception types raised by the library.

Everything mathematical derives from FanError so callers (notably the CLI)
can distinguish "a check failed" from malformed input (ParseError) and from
failed internal cross-checks (InternalError).
"""


class FanError(Exception):
    """Base class for mathematical failures."""


class DimensionMismatch(FanError):
    pass


class NonPrimitiveRay(FanError):
    pass


class SingularCone(FanError):
    """A maximal cone that repeats a ray, has the wrong size or is not unimodular.

    cone holds the ray names of the offending cone, in input order.
    """

    def __init__(self, message, cone=None):
        super().__init__(message)
        self.cone = cone


class BadFaceStructure(FanError):
    """Two cones overlap or meet outside a common face."""


class DanglingRay(FanError):
    """A ray that belongs to no maximal cone."""


class NotAPrimitiveCollection(FanError):
    pass


class NoContainingCone(FanError):
    """A generator sum lies in no cone; the fan is invalid or incomplete."""


class InconsistentRelations(FanError):
    """A relation presentation has no integral solution."""


class UnderdeterminedRelations(FanError):
    """A relation presentation leaves some generator unsolved."""


class ResultNotComplete(FanError):
    pass


class ResultSingular(FanError):
    pass


class ResultNotAFan(FanError):
    """Shearing the lower half-fan produced an invalid cone complex."""


class ConditionsNotSatisfied(FanError):
    """The endpoint inequalities fail for the requested shear parameter."""


class PreconditionViolated(FanError):
    pass


class UnknownName(FanError):
    """No catalog entry under the requested name."""


class InternalError(Exception):
    """An internal cross-check failed, such as the two Fano criteria disagreeing.

    Signals a bug in the library, never a property of the input, so it is
    not a FanError.  Raised explicitly, so it also fires under python -O.
    """


class ParseError(Exception):
    """Malformed fan or relation file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
