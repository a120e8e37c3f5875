"""Exception and warning types shared across the package.

Every error that names graph vertices, arrows, or labels carries the offending
ids in its message so callers can report them without holding the object.
"""


class LogifoldError(Exception):
    """Base class for all errors raised by this package."""


# -- graph structure -------------------------------------------------------

class CyclicGraphError(LogifoldError):
    pass


class MultipleSourcesError(LogifoldError):
    pass


class IncompleteRoutingError(LogifoldError):
    pass


class DanglingVertexError(LogifoldError):
    pass


class DimensionMismatchError(LogifoldError):
    pass


class UnknownSignVectorError(LogifoldError):
    pass


class PathExplosionError(LogifoldError):
    pass


class NonFinitePointError(LogifoldError):
    """A point to evaluate, or a row to solve exactly, has a NaN or infinite entry."""


# -- compilation -----------------------------------------------------------

class GuardExplosionError(LogifoldError):
    pass


class RegionExplosionError(LogifoldError):
    pass


class UnsupportedActivationError(LogifoldError):
    pass


class DegenerateHyperplaneWarning(UserWarning):
    """A finite layer image landed exactly on a later decision hyperplane."""


# -- algebra ---------------------------------------------------------------

class NotF2LabeledError(LogifoldError):
    pass


class SeparationFailureError(LogifoldError):
    pass


# -- semilinear ------------------------------------------------------------

class DimensionBudgetError(LogifoldError):
    """Exact elimination is only supported up to a fixed ambient dimension."""


class AmbiguousFiberError(LogifoldError):
    pass


# -- approximation ---------------------------------------------------------

class BudgetCapError(LogifoldError):
    pass


# -- fuzzy graphs ----------------------------------------------------------

class StateSpaceViolationError(LogifoldError):
    pass


class StateSpaceMismatchError(LogifoldError):
    pass


class NotScalarOutputError(LogifoldError):
    pass


class UnknownOutcomeError(LogifoldError):
    pass


# -- training --------------------------------------------------------------

class DivergenceError(LogifoldError):
    pass


class BlockMismatchError(LogifoldError):
    pass


# -- ensembles -------------------------------------------------------------

class FlatteningMismatchError(LogifoldError):
    pass


class NoRootModelError(LogifoldError):
    pass


class MalformedEmbeddingError(LogifoldError):
    """A chart embedding has an unknown kind or a bad parameter."""


class AssumptionViolationError(LogifoldError):
    pass


class NoValidPathError(LogifoldError):
    pass


class EmptyValidationError(LogifoldError):
    pass


class UncoveredInstanceError(LogifoldError):
    pass
