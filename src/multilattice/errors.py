"""Exception types shared across the package."""


class MultilatticeError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZero(MultilatticeError, ZeroDivisionError):
    pass


class FieldMismatch(MultilatticeError, ValueError):
    pass


class BadReduction(MultilatticeError, ArithmeticError):
    """A modular projection hit a denominator (or norm) divisible by p."""


class ZeroPolynomial(MultilatticeError, ValueError):
    pass


class ExactDivisionError(MultilatticeError, ArithmeticError):
    pass


class LengthMismatch(MultilatticeError, ValueError):
    pass


class NotComparable(MultilatticeError, ValueError):
    pass


class InternalInconsistency(MultilatticeError, RuntimeError):
    """The solver produced something that contradicts freeness; a bug."""


class NotArrangementPreserving(MultilatticeError, ValueError):
    pass


class HypothesisViolated(MultilatticeError, ValueError):
    """A certification routine was fed inputs failing its stated hypotheses."""


class UncoveredWindow(HypothesisViolated):
    """The candidate balls leave a balanced region of the window uncovered;
    a smaller window may satisfy the hypotheses."""


class ParseError(MultilatticeError, ValueError):
    pass


class ProportionalForms(MultilatticeError, ValueError):
    pass


class PreconditionViolated(MultilatticeError, ValueError):
    pass


class NoCenterPairFound(MultilatticeError, LookupError):
    pass


class OffsetTooLarge(MultilatticeError, ValueError):
    pass
