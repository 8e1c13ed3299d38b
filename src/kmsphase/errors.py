"""Exception hierarchy for the kmsphase toolkit.

Validation errors signal bad input data; numeric errors signal a
computation that could not be completed reliably.
"""

from __future__ import annotations


class KmsError(Exception):
    """Base class for all kmsphase errors."""


# --- model construction -------------------------------------------------

class ZeroRowError(KmsError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} of the transition matrix is identically zero")


class EnergyNotAboveOneError(KmsError):
    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"energy N({index}) = {value} must be finite and strictly greater than 1")


class DimensionMismatchError(KmsError):
    pass


class NotIrreducibleError(KmsError):
    pass


class ZeroColumnError(KmsError):
    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} of the transition matrix is identically zero")


# --- word enumeration ---------------------------------------------------

class LengthTooLargeError(KmsError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration would visit {count} words, above the cap {cap}")


class DegenerateShellsError(KmsError):
    pass


# --- numerics -----------------------------------------------------------

class NoConvergenceError(KmsError):
    pass


# --- state construction -------------------------------------------------

class ZeroMeasureError(KmsError):
    pass


class DivergentNormalizerError(KmsError):
    pass


class NegativeDefectError(KmsError):
    def __init__(self, point: int, value: float):
        self.point = point
        self.value = value
        super().__init__(
            f"defect {value} at column point {point} is negative: state is not subinvariant"
        )


class NotSubinvariantError(KmsError):
    pass


# --- invariance checks --------------------------------------------------

class TooLargeForExhaustiveError(KmsError):
    pass


class NotFixedPointError(KmsError):
    pass


class NotNormalizedError(KmsError):
    pass


class NegativeEntryError(KmsError):
    pass


class NotInvariantError(KmsError):
    pass


# --- star family --------------------------------------------------------

class ConditionDaggerFailsError(KmsError):
    def __init__(self, needed_drop: int | None):
        self.needed_drop = needed_drop
        hint = f"; try drop >= {needed_drop}" if needed_drop is not None else ""
        super().__init__(f"the partition normalization condition fails at the abscissa{hint}")


class EnergyBelowTwoError(KmsError):
    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(f"star energy N_{k} = {value} is below 2; increase drop")


class BelowAbscissaError(KmsError):
    pass


# --- CLI ----------------------------------------------------------------

class ConfigParseError(KmsError):
    pass


class ModelValidationError(KmsError):
    pass
