"""Grading groups, twist characters, and the Koszul sign rule.

A grading group is a finitely generated abelian group, presented as
Z^free_rank + Z/t_1 + ... + Z/t_m.  Elements are integer tuples of length
free_rank + m, with torsion coordinates reduced mod their order.  A twist
character assigns +1 or -1 to each coordinate generator; a coordinate of odd
torsion order is forced to +1 (there is no nontrivial homomorphism from
Z/odd to {+-1}).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError


@dataclass(frozen=True)
class GradingGroup:
    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValidationError("free_rank must be nonnegative")
        for t in self.torsion_orders:
            if t < 2:
                raise ValidationError(f"torsion order must be >= 2, got {t}")

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def validate(self, g) -> tuple[int, ...]:
        """Canonicalize an element: reduce torsion coordinates mod their order."""
        g = tuple(g)
        if len(g) != self.rank or not all(isinstance(c, int) for c in g):
            raise ValidationError(
                f"element {g!r} is not an integer tuple of length {self.rank}"
            )
        free = g[: self.free_rank]
        tors = tuple(c % t for c, t in zip(g[self.free_rank:], self.torsion_orders))
        return free + tors

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, a, b) -> tuple[int, ...]:
        a, b = self.validate(a), self.validate(b)
        return self.validate(tuple(x + y for x, y in zip(a, b)))

    def add_canonical(self, a, b) -> tuple[int, ...]:
        """a + b for elements already in canonical form (as validate returns
        them); for the engine's inner loops, so nothing is re-validated."""
        s = [x + y for x, y in zip(a, b)]
        for i, t in enumerate(self.torsion_orders, self.free_rank):
            s[i] %= t
        return tuple(s)

    def scale(self, k: int, a) -> tuple[int, ...]:
        a = self.validate(a)
        return self.validate(tuple(k * x for x in a))


@dataclass(frozen=True)
class TwistCharacter:
    """A homomorphism from the grading group to {+1, -1}, one sign per coordinate."""

    group: GradingGroup
    signs: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        signs = self.signs
        if signs is None:
            signs = (1,) * self.group.rank
        signs = tuple(signs)
        if len(signs) != self.group.rank:
            raise ValidationError(
                f"need {self.group.rank} signs, got {len(signs)}"
            )
        if any(s not in (1, -1) for s in signs):
            raise ValidationError("signs must be +1 or -1")
        for i, t in enumerate(self.group.torsion_orders):
            if t % 2 == 1 and signs[self.group.free_rank + i] == -1:
                raise ValidationError(
                    f"coordinate of odd torsion order {t} cannot carry sign -1"
                )
        object.__setattr__(self, "signs", signs)

    def chi(self, g) -> int:
        g = self.group.validate(g)
        e = sum(c for c, s in zip(g, self.signs) if s == -1)
        return -1 if e % 2 else 1

    def parity(self, g) -> int:
        """0 for chi(g) = +1, 1 for chi(g) = -1."""
        return 0 if self.chi(g) == 1 else 1


def swap_sign(chi: TwistCharacter, bideg_a, bideg_b) -> int:
    """Koszul sign (-1)^(n_a n_b + lambda(g_a) lambda(g_b)) for commuting two classes."""
    (g_a, n_a), (g_b, n_b) = bideg_a, bideg_b
    e = n_a * n_b + chi.parity(g_a) * chi.parity(g_b)
    return -1 if e % 2 else 1
