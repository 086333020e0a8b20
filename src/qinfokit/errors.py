"""Exception types shared across the toolkit.

Every error raised on purpose by this package derives from ToolkitError, so
callers can catch one base class at API boundaries (the CLI maps them to
exit code 1, malformed input to exit code 2).
"""


class ToolkitError(Exception):
    """Base class for all errors raised by qinfokit."""


class DimensionError(ToolkitError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NotHermitian(ToolkitError):
    """Input expected to be Hermitian is not, beyond tolerance."""


class NegativeEigenvalue(ToolkitError):
    """PSD-only matrix function applied to an indefinite matrix."""


class CutOutOfRange(ToolkitError):
    """Bipartition index outside the subsystem list."""


class FOutOfRange(ToolkitError):
    """Werner parameter outside [0, 1]."""


class BelowValidRange(ToolkitError):
    """Werner Schmidt number requested for F < 1/d^2 (open regime)."""


class ChoiTooLarge(ToolkitError):
    """Choi matrix would exceed the configured dimension cap."""


class NotPSD(ToolkitError):
    """Matrix expected to be positive semidefinite is not."""


class NotTracePreserving(ToolkitError):
    """Channel expected to be trace preserving is not."""


class NotStochastic(ToolkitError):
    """Classical kernel columns do not sum to one."""


class NotMinimal(ToolkitError):
    """Kraus family expected to be linearly independent is not."""


class KLViolated(ToolkitError):
    """Recovery construction attempted on a code/error pair that fails
    the correctability condition."""


class EigsNotDistinct(ToolkitError):
    """Spectrum required to be distinct has repeated values."""


class KOutOfRange(ToolkitError):
    """Rank parameter k outside 0 <= k < min(m, n)."""


class ProbabilityError(ToolkitError):
    """Weights are negative or do not sum to one."""


class IllConditioned(ToolkitError):
    """Support-restricted inverse would amplify noise beyond the guard."""


class TooLarge(ToolkitError):
    """Computation requested beyond a cost guard: an exact search past
    its exponential-cost cap, or a program whose data would exceed its
    memory cap."""


class NotFeasibleWitness(ToolkitError):
    """Witness matrix fails the feasibility conditions it must certify."""


class SolverFailure(ToolkitError):
    """SDP solve did not reach the requested quality; carries diagnostics."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class Infeasible(ToolkitError):
    """SDP primal residual stalled; problem judged infeasible."""


class NumericalBreakdown(ToolkitError):
    """SDP iterate lost positivity, or the iterates diverged."""


class SingularA(ToolkitError):
    """Markov-inequality threshold matrix is not positive definite."""


class DomainError(ToolkitError):
    """Scalar argument outside the mathematical domain."""


class MeanNotIsotropic(ToolkitError):
    """Matrix distribution mean is not a multiple of the identity."""


class FormatError(ToolkitError):
    """Malformed serialized document; message carries field diagnostics."""
