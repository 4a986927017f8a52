"""Exception types shared across the package."""


class TraceCodesError(Exception):
    """Base class for all library-specific errors."""


class NotPrimeError(TraceCodesError):
    """The requested characteristic is not prime."""


class EvenCharacteristicError(TraceCodesError):
    """Characteristic 2 is not supported; the characteristic must be odd."""


class DegreeTooSmallError(TraceCodesError):
    """The extension degree is below the minimum required by the operation."""


class SizeCapExceededError(TraceCodesError):
    """The requested field size exceeds the configured cap."""


class MixedContextError(TraceCodesError):
    """Operands belong to different field contexts."""


class MixedRootOrderError(TraceCodesError):
    """Cyclotomic integers with different root orders were combined."""


class ZeroLeadingCoefficientError(TraceCodesError):
    """A quadratic exponential sum needs a nonzero leading coefficient."""


class EmptyConstraintError(TraceCodesError):
    """A generalized defining set needs at least one constraint."""


class EmptyDefiningSetError(TraceCodesError):
    """A defining set has no elements, so there is no code to build."""


class BudgetExceededError(TraceCodesError):
    """The enumeration would exceed the configured symbol-evaluation budget."""


class NonPowerCodewordCountError(TraceCodesError):
    """The number of distinct codewords is not a power of p; signals a bug."""


class FrequencyMismatchError(TraceCodesError):
    """Closed-form term frequencies are inconsistent (negative, or the total
    is not p^m)."""


class NotFrobeniusStableError(TraceCodesError):
    """A defining set is not closed under x |-> x^p, so orbit-reduced
    enumeration would be wrong for it."""
