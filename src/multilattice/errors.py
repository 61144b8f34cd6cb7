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


class InternalInconsistency(MultilatticeError, RuntimeError):
    """The solver produced something that contradicts freeness; a bug."""


class NotArrangementPreserving(MultilatticeError, ValueError):
    pass


class HypothesisViolated(MultilatticeError, ValueError):
    """A certification routine was fed inputs failing its stated hypotheses."""


class ParseError(MultilatticeError, ValueError):
    pass


class ProportionalForms(MultilatticeError, ValueError):
    pass


class PreconditionViolated(MultilatticeError, ValueError):
    pass


class GapZero(PreconditionViolated):
    """A generator unique up to scalar was asked for where the gap is 0."""

    def __init__(self, mu):
        super().__init__(f"theta is only defined up to scalar on the support; gap is 0 at {mu}")
        self.mu = mu


class NoCenterPairFound(MultilatticeError, LookupError):
    pass


class OffsetTooLarge(MultilatticeError, ValueError):
    pass
