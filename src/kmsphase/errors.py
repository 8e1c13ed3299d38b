"""Exception hierarchy for the kmsphase toolkit.

An :class:`InputError` signals bad input data; every other
:class:`KmsError` signals a computation that could not be completed
reliably.  The CLI exits 1 on an InputError (or a ValueError) and 2 on
any other KmsError, and on numpy's LinAlgError, a ValueError subclass
raised by a failed solve or eigendecomposition.
"""

from __future__ import annotations


class KmsError(Exception):
    """Base class for all kmsphase errors."""


class InputError(KmsError):
    """Bad input data; the CLI exits 1."""


# --- model construction -------------------------------------------------

class ZeroRowError(InputError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} of the transition matrix is identically zero")


class EnergyNotAboveOneError(InputError):
    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"energy N({index}) = {value} must be finite and strictly greater than 1")


class DimensionMismatchError(InputError):
    pass


class NotIrreducibleError(InputError):
    pass


class ZeroColumnError(InputError):
    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} of the transition matrix is identically zero")


# --- word enumeration ---------------------------------------------------

class LengthTooLargeError(InputError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        try:
            shown = str(count)
        except ValueError:      # more digits than Python converts to a string
            shown = f"at least 2^{count.bit_length() - 1}"
        super().__init__(f"enumeration would visit {shown} words, above the cap {cap}")


class DegenerateShellsError(KmsError):
    pass


# --- numerics -----------------------------------------------------------

class NoConvergenceError(KmsError):
    pass


class IllConditionedSolveError(KmsError):
    """A linear solve whose result breaks a bound the exact solution keeps."""


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

class TooLargeForExhaustiveError(InputError):
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

class ConditionDaggerFailsError(InputError):
    def __init__(self, needed_drop: int | None):
        self.needed_drop = needed_drop
        super().__init__("the partition normalization condition fails at the abscissa")


class EnergyBelowTwoError(InputError):
    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(f"star energy N_{k} = {value} is below 2; increase drop")


class BelowAbscissaError(InputError):
    pass


# --- CLI ----------------------------------------------------------------

class ConfigParseError(InputError):
    pass
