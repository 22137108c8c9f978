"""Exception types shared across the package."""


class BlochSigError(Exception):
    """Base class for every package-specific error."""


class InvalidDimensionError(BlochSigError, ValueError):
    """A Hilbert-space dimension below 2 was requested."""


class DimensionMismatchError(BlochSigError, ValueError):
    """Operands describe systems of incompatible dimensions."""


class UnphysicalStateError(BlochSigError, ValueError):
    """A reconstructed matrix is not a valid density matrix.

    Carries the offending minimum eigenvalue so callers can report how far
    outside the physical set the coordinates landed.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class InvalidProjectorError(BlochSigError, ValueError):
    """Input matrix is not Hermitian idempotent within tolerance."""


class InvalidObservableError(BlochSigError, ValueError):
    """Outcome projectors are not orthogonal/complete, or inputs are not
    orthonormal."""


class ZeroProbabilityBranchError(BlochSigError, ValueError):
    """A conditional state was requested for an outcome of (numerically)
    zero probability."""


class NonlinearityEvaluationError(BlochSigError, ValueError):
    """A state-dependent weight returned a non-finite value."""


class NonFiniteGeneratorError(BlochSigError, ValueError):
    """A Hamiltonian's coefficients give a generator that is not finite."""


class IntegrationFailureError(BlochSigError, RuntimeError):
    """The ODE integrator gave up (step-size underflow or step budget)."""


class PerturbationInfeasibleError(BlochSigError, RuntimeError):
    """A channel's perturbation moves a branch of zero weight, which has
    only a one-sided derivative."""


class ConfigError(BlochSigError, ValueError):
    """A run configuration failed to parse; message is prefixed with the
    offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
