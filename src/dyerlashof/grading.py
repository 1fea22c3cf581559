"""Grading groups and twist characters.

A grading group is a finitely generated abelian group, presented as
Z^free_rank + Z/t_1 + ... + Z/t_m.  Elements are integer tuples of length
free_rank + m, with torsion coordinates reduced mod their order.  A twist
character assigns +1 or -1 to each coordinate generator; a coordinate of odd
torsion order is forced to +1 (there is no nontrivial homomorphism from
Z/odd to {+-1}).

Input is validated once, where it enters: GradingGroup.validate checks and
reduces an element, and Context, basis and the CLI parsers call it.  Inside
the engine every element is such a canonical tuple, so add and scale only
do the arithmetic and reduce the torsion coordinates, with no check.
parity needs no reduction either: -1 sits only on free or even-torsion
coordinates, and reducing a coordinate mod an even order keeps its parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import is_int
from .errors import ValidationError


@dataclass(frozen=True)
class GradingGroup:
    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if not is_int(self.free_rank) or self.free_rank < 0:
            raise ValidationError(
                f"free_rank must be a nonnegative integer, got {self.free_rank!r}"
            )
        orders = self.torsion_orders
        if not isinstance(orders, (tuple, list)):
            raise ValidationError(f"torsion_orders must be a list, got {orders!r}")
        for t in orders:
            if not is_int(t) or t < 2:
                raise ValidationError(f"torsion order must be an integer >= 2, got {t!r}")
        object.__setattr__(self, "torsion_orders", tuple(orders))

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def validate(self, g) -> tuple[int, ...]:
        """Check an element from outside the engine and return it canonical,
        its torsion coordinates reduced mod their order."""
        g = tuple(g)
        if len(g) != self.rank or not all(is_int(c) for c in g):
            raise ValidationError(
                f"element {g!r} is not an integer tuple of length {self.rank}"
            )
        return self._reduce(list(g))

    def _reduce(self, coords: list) -> tuple[int, ...]:
        for i, t in enumerate(self.torsion_orders, self.free_rank):
            coords[i] %= t
        return tuple(coords)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, a, b) -> tuple[int, ...]:
        """a + b for canonical elements; nothing is checked."""
        return self._reduce([x + y for x, y in zip(a, b)])

    def scale(self, k: int, a) -> tuple[int, ...]:
        """k * a for a canonical element; nothing is checked."""
        return self._reduce([k * x for x in a])


@dataclass(frozen=True)
class TwistCharacter:
    """A homomorphism from the grading group to {+1, -1}, one sign per coordinate."""

    group: GradingGroup
    signs: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        signs = self.signs
        if signs is None:
            signs = (1,) * self.group.rank
        if not isinstance(signs, (tuple, list)):
            raise ValidationError(f"signs must be a list, got {signs!r}")
        signs = tuple(signs)
        if len(signs) != self.group.rank:
            raise ValidationError(
                f"need {self.group.rank} signs, got {len(signs)}"
            )
        if any(not is_int(s) or s not in (1, -1) for s in signs):
            raise ValidationError("signs must be +1 or -1")
        for i, t in enumerate(self.group.torsion_orders):
            if t % 2 == 1 and signs[self.group.free_rank + i] == -1:
                raise ValidationError(
                    f"coordinate of odd torsion order {t} cannot carry sign -1"
                )
        object.__setattr__(self, "signs", signs)

    def parity(self, g) -> int:
        """0 for chi(g) = +1, 1 for chi(g) = -1: the sum of the coordinates
        that carry -1, mod 2.  g need not be reduced (see the module note)."""
        return sum(c for c, s in zip(g, self.signs) if s == -1) % 2

    def chi(self, g) -> int:
        return -1 if self.parity(g) else 1

