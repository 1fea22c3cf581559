"""Error taxonomy shared across the package, the work meter, and the integer
predicate that every check of the package, the meter's included, uses."""

from functools import wraps

_new = object.__new__


class DyerLashofError(Exception):
    pass


class ContractError(DyerLashofError):
    """A caller violated a documented precondition."""


class ValidationError(DyerLashofError):
    """Malformed user input (context files, element syntax, CLI args)."""


class ResourceError(DyerLashofError):
    """A computation exceeded its work budget (raised by Meter.charge)."""


def is_int(v) -> bool:
    """An int that is not a bool: JSON true and false must not pass as 1 and 0.
    An exact int, the common case, is settled by its type alone."""
    return type(v) is int or isinstance(v, int) and not isinstance(v, bool)


DEFAULT_BUDGET = 10**6


class Meter:
    """The work budget of one command.  `with Meter(budget) as meter` opens a
    meter unless one is open, and joins that one otherwise, so nested calls
    share one budget; the outermost `with` closes it, error or not.  Each
    public engine entry does the same with Meter(), of DEFAULT_BUDGET units,
    through `metered`.  A budget is an int >= 0, not a bool
    (ValidationError).  Units are charged per stage; work done with no meter
    open is free."""

    __slots__ = ("budget", "left", "counts")
    running = None  # the open meter

    def __init__(self, budget: int = DEFAULT_BUDGET):
        if not (is_int(budget) and budget >= 0):
            raise ValidationError(f"budget must be a nonnegative integer, got {budget!r}")
        self.budget = self.left = budget
        self.counts: dict[str, int] = {}

    def __enter__(self) -> "Meter":
        Meter.running = Meter.running or self
        return Meter.running

    def __exit__(self, exc_type, exc, tb) -> None:
        if Meter.running is self:
            Meter.running = None

    def charge(self, stage: str, units: int = 1) -> None:
        self.counts[stage] = self.counts.get(stage, 0) + units
        self.left -= units
        if self.left < 0:
            spent = ", ".join(f"{s} {n}" for s, n in self.counts.items())
            raise ResourceError(f"{stage} exceeded budget of {self.budget} units ({spent})")


def metered(entry):
    """entry, run under the open meter, or else under a Meter() opened for
    the call and closed after it, error or not: what `with Meter():` around
    its body does, without the calls to __init__, __enter__ and __exit__.
    The body reads the meter as Meter.running."""

    @wraps(entry)
    def call(*args, **kwargs):
        if Meter.running is not None:
            return entry(*args, **kwargs)
        # Meter() with no call to __init__: DEFAULT_BUDGET needs no check
        meter = Meter.running = _new(Meter)
        meter.budget = meter.left = DEFAULT_BUDGET
        meter.counts = {}
        try:
            return entry(*args, **kwargs)
        finally:
            Meter.running = None

    return call


def charge(stage: str, units: int = 1) -> None:
    """Charge the open meter, if there is one."""
    if Meter.running is not None:
        Meter.running.charge(stage, units)
