"""Exception hierarchy shared by all hydromoments modules."""


class HydromomentsError(Exception):
    """Base class for all library errors."""


class DimensionTooSmall(HydromomentsError):
    pass


class QuantumNumberOutOfRange(HydromomentsError):
    pass


class NonpositiveCharge(HydromomentsError):
    pass


class OrderOutOfDomain(HydromomentsError):
    pass


class OrderOutOfRegime(HydromomentsError):
    pass


class CancellationOverflow(HydromomentsError):
    pass


class FloatOverflow(HydromomentsError):
    """A float result or prefactor exceeds the double range.  Unlike
    CancellationOverflow it triggers no quadrature retry: the quadrature
    value would overflow too."""


class FloatUnderflow(HydromomentsError):
    """A nonzero result, exact or float, or a float prefactor lies below the
    normal double range, where its float would lose digits or read as zero."""


class NotCircular(HydromomentsError):
    pass


class NotSWave(HydromomentsError):
    pass


class QuadratureFailure(HydromomentsError):
    pass


class NonpositiveArgument(HydromomentsError):
    pass


class UnsupportedArgument(HydromomentsError, ValueError):
    pass


class PoleInBottomParameter(HydromomentsError):
    pass


class NonTerminating(HydromomentsError):
    pass


class ParameterOutOfRange(HydromomentsError):
    pass


class NonpositiveParameters(HydromomentsError):
    pass
