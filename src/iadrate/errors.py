"""Exception hierarchy for the iadrate package."""


class IadError(Exception):
    """Base class for all errors raised by iadrate."""


class DimensionError(IadError):
    """Operands have incompatible shapes."""


class SingularMatrixError(IadError):
    """A matrix required to be invertible is numerically singular."""


class NotSymmetricError(IadError):
    """A matrix required to be symmetric (or self-adjoint) is not."""


class EigenConvergenceError(IadError):
    """An iterative eigensolver failed to converge."""


class NotStochasticError(IadError):
    """A matrix fails the column-stochastic validation.

    The offending column index, when known, is stored in ``column``.
    """

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class ReducibleMatrixError(IadError):
    """A stochastic matrix required to be irreducible is reducible."""


class ZeroMassStratumError(IadError):
    """A coarse state carries no mass under the current base vector."""


class PartitionError(IadError):
    """A partition is malformed (empty stratum, bad labels, non-refinement)."""


class RefinementError(IadError):
    """Refining the strata raised the rate of a reversible chain, which the
    theory rules out: a sign that the computed rates are wrong."""


class InconsistentSteadyStateError(IadError):
    """The supplied steady state is not invariant to working precision."""


class NonConvergenceError(IadError):
    """An outer iteration hit its cap. Carries whatever trace was collected."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
