"""Exception types shared across the library."""


class TropstabError(Exception):
    """Base class for all library-specific errors."""


class InputError(TropstabError, ValueError):
    """Malformed input: an external payload, or an argument out of range."""


class DomainError(TropstabError):
    """Operation applied outside its domain, e.g. reducing a non-integral element."""


class DivisionByZeroError(TropstabError, ZeroDivisionError):
    """Multiplicative inverse of zero."""


class SingularMatrixError(TropstabError):
    """Matrix with vanishing determinant where an invertible one is required."""


class DimensionMismatchError(TropstabError):
    """Incompatible matrix or vector dimensions."""


class DeterminantNotOneError(TropstabError):
    """Determinant-one matrix required."""


class NotSymplecticError(TropstabError):
    """Matrix does not preserve the standard symplectic form."""


class OutOfStarError(TropstabError):
    """Point lies outside the star of the origin."""


class WeightMismatchError(TropstabError):
    """Partition size and content size differ."""


class TooManyPartsError(TropstabError):
    """Partition has more parts than the rank allows."""


class RepeatedValuesError(TropstabError):
    """Pairwise distinct evaluation points required."""


class NotAVertexError(TropstabError):
    """Weight is not a vertex of the weight polytope."""


class AllInfiniteError(TropstabError):
    """Vector with every entry equal to minus infinity."""


class InvalidDirectionError(TropstabError):
    """Direction of the wrong dimension, or a stratum that is not a nonempty index set."""


class UnsupportedRankError(TropstabError):
    """Figure rendering is limited to rank-two apartments."""


class TypeMismatchError(TropstabError):
    """Weyl element does not match the character's group type."""
