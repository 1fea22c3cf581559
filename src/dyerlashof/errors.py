"""Error taxonomy shared across the package, and the work meter."""


class DyerLashofError(Exception):
    pass


class ContractError(DyerLashofError):
    """A caller violated a documented precondition."""


class ValidationError(DyerLashofError):
    """Malformed user input (context files, element syntax, CLI args)."""


class ResourceError(DyerLashofError):
    """A computation exceeded its work budget (raised by Meter.charge)."""


class Meter:
    """The work budget of one call.  `with Meter(budget) as meter` opens a
    meter unless one is open, and joins that one otherwise, so nested calls
    share one budget; the outermost `with` closes it, error or not.  The
    engine's entry points open Meter(ctx.budget), normalize Meter(budget).
    Units are charged per stage; work done with no meter open is free."""

    __slots__ = ("budget", "left", "counts")
    running = None  # the open meter

    def __init__(self, budget: int):
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


def charge(stage: str, units: int = 1) -> None:
    """Charge the open meter, if there is one."""
    if Meter.running is not None:
        Meter.running.charge(stage, units)
