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

import operator
from collections import namedtuple

from .arith import is_int
from .errors import ContractError, ValidationError


class GradingGroup(namedtuple("GradingGroup", "free_rank torsion_orders")):
    """Z^free_rank + Z/t_1 + ... + Z/t_m; the constructor checks its input."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion_orders=()):
        if not is_int(free_rank) or free_rank < 0:
            raise ValidationError(
                f"free_rank must be a nonnegative integer, got {free_rank!r}"
            )
        if not isinstance(torsion_orders, (tuple, list)):
            raise ValidationError(f"torsion_orders must be a list, got {torsion_orders!r}")
        for t in torsion_orders:
            if not is_int(t) or t < 2:
                raise ValidationError(f"torsion order must be an integer >= 2, got {t!r}")
        return super().__new__(cls, free_rank, tuple(torsion_orders))

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def validate(self, g) -> tuple[int, ...]:
        """Check an element from outside the engine and return it canonical,
        its torsion coordinates reduced mod their order."""
        if isinstance(g, (tuple, list)):
            g = tuple(g)
            if len(g) == self.rank and all(is_int(c) for c in g):
                return self._reduce(list(g))
        raise ValidationError(f"element {g!r} is not an integer tuple of length {self.rank}")

    def _reduce(self, coords: list) -> tuple[int, ...]:
        for i, t in enumerate(self.torsion_orders, self.free_rank):
            coords[i] %= t
        return tuple(coords)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, a, b) -> tuple[int, ...]:
        """a + b for canonical elements; nothing is checked, and with no
        torsion nothing is reduced."""
        if self.torsion_orders:
            return self._reduce(list(map(operator.add, a, b)))
        return tuple(map(operator.add, a, b))

    def scale(self, k: int, a) -> tuple[int, ...]:
        """k * a for a canonical element; nothing is checked, and with no
        torsion nothing is reduced."""
        if self.torsion_orders:
            return self._reduce([k * x for x in a])
        return tuple([k * x for x in a])


class TwistCharacter(namedtuple("TwistCharacter", "group signs")):
    """A homomorphism from the grading group to {+1, -1}, one sign per
    coordinate; the constructor checks its input."""

    __slots__ = ()

    def __new__(cls, group: GradingGroup, signs):
        if not isinstance(group, GradingGroup):
            raise ContractError(f"expected a GradingGroup, got {type(group).__name__}")
        if not isinstance(signs, (tuple, list)):
            raise ValidationError(f"signs must be a list, got {signs!r}")
        signs = tuple(signs)
        if len(signs) != group.rank:
            raise ValidationError(f"need {group.rank} signs, got {len(signs)}")
        if any(not is_int(s) or s not in (1, -1) for s in signs):
            raise ValidationError("signs must be +1 or -1")
        for i, t in enumerate(group.torsion_orders):
            if t % 2 == 1 and signs[group.free_rank + i] == -1:
                raise ValidationError(
                    f"coordinate of odd torsion order {t} cannot carry sign -1"
                )
        return super().__new__(cls, group, signs)

    def parity(self, g) -> int:
        """0 for chi(g) = +1, 1 for chi(g) = -1: the sum of the coordinates
        that carry -1, mod 2.  g need not be reduced (see the module note)."""
        return sum(c for c, s in zip(g, self.signs) if s == -1) % 2

    def chi(self, g) -> int:
        return -1 if self.parity(g) else 1

