"""Exception types shared across the package."""


class QuadoscError(Exception):
    """Base class for package-specific errors."""


class ResonantDenominator(QuadoscError):
    """A driving term hit a homogeneous mode of the linearized motion."""


class SingularInverse(QuadoscError):
    """The flow-operator inverse was applied to a flat (constant) term."""


class OddParity(QuadoscError):
    """The operator calculus is defined on even monomials only."""


class ConvergenceFailure(QuadoscError):
    """The iterative eigensolver missed its residual tolerance."""
