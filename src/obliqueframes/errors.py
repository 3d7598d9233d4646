"""Exception taxonomy shared by all modules.

Every validation failure raises a subclass of :class:`FrameError`, which
the CLI maps onto exit codes (2 for validation errors, 3 for hypothesis
violations, 4 for non-convergence).  :class:`InternalConsistencyError`, exit
code 5, is deliberately *not* a FrameError: it signals that two independent
code paths computed the same quantity and disagreed, i.e. a bug.
"""


class FrameError(Exception):
    """Base class for all recoverable validation errors."""


class ParseError(FrameError):
    """A fixture file is malformed or violates a schema invariant."""


class AllZero(FrameError):
    """Every input vector is numerically zero."""


class DimensionMismatch(FrameError):
    """Inputs have incompatible lengths or ambient dimensions."""


class DirectSumViolation(FrameError):
    """The two subspaces do not split the ambient space."""


class NotAFrame(FrameError):
    """The vectors or atoms fail to span the claimed subspace."""


class NotADual(FrameError):
    """A pair supplied as a dual fails the residual check."""


class MarginalMismatch(FrameError):
    """A coupling's marginals are not the measures it is claimed to couple."""


class SupportOutsideSubspace(FrameError):
    """A measure has support atoms outside the claimed subspace."""


class RangeViolation(FrameError):
    """A supplied map leaves the required target subspace."""


class HypothesisViolated(FrameError):
    """The quantitative hypotheses of a certificate are not met."""


class NonConvergence(FrameError):
    """An iterative routine hit its iteration cap before its tolerance."""


class InternalConsistencyError(RuntimeError):
    """Two independent evaluations of the same identity disagree."""
