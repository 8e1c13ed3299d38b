"""The one rounding model behind every outward pad and certified bracket.

Each operation on doubles returns the exact value times 1 + d, |d| <= u =
EPS / 2 (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
ch. 2-3), so k roundings move a value by a factor within 1 -+ k EPS.
"""

from __future__ import annotations

import math
from typing import NamedTuple

EPS = 2.0 ** -52


def gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u the unit roundoff."""
    k = n * (0.5 * EPS)
    return k / (1.0 - k)


def down(x: float, k: int) -> float:
    """x moved down past k roundings (x >= 0)."""
    return x * (1.0 - k * EPS)


def up(x: float, k: int) -> float:
    """x moved up past k roundings (x >= 0)."""
    return x * (1.0 + k * EPS)


def exp_out(x: float, side: float) -> float:
    """exp(x) moved outward (side -1 down, +1 up) past the rounding of an x
    computed from two rounded factors, of exp itself and of the products it
    enters; +inf past overflow."""
    if x > 709.0:
        return math.inf
    return math.exp(x) * (1.0 + side * 8.0 * (1.0 + abs(x)) * EPS)


class Enclosure(NamedTuple):
    """A certified bracket lo <= value <= hi."""

    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)
