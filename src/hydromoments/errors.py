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


class OrderOutOfRegime(OrderOutOfDomain):
    """An order outside an asymptotic estimate's regime: where the moment it
    estimates diverges, or outside the narrower interval its form holds on."""


class FloatOverflow(HydromomentsError):
    """A result, exact or float, or a Gauss-Jacobi weight integral exceeds
    the double range.  It triggers no quadrature retry: a float series is
    rounded once, so its range error means the moment itself is out of range."""


class FloatUnderflow(HydromomentsError):
    """A nonzero result, exact or float, lies below the normal double range,
    where its float would lose digits or read as zero.  Like FloatOverflow,
    it triggers no quadrature retry."""


class ExactTooLarge(HydromomentsError):
    """A value whose cost would pass `specfun.COST_BUDGET`: each exact route,
    and `double` in both modes, states its cost before it builds anything
    (`specfun.require_cost`), and the message names a cheaper route or mode."""


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
