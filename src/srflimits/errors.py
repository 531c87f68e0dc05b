"""Exception hierarchy for the srflimits toolkit.

Two broad families: domain/usage errors (bad inputs, rejected parameter
ranges) and computational errors (precision exhaustion, infeasibility,
enumeration budgets). The CLI maps the former to exit code 2 and the
latter to exit code 3.
"""


class SRFError(Exception):
    """Base class for all srflimits errors."""


class DomainError(SRFError, ValueError):
    """Input outside the validated domain (e.g. y not in (0, 1/2))."""


class SupportError(DomainError):
    """Malformed support set, or a support not contained in its window."""


class SpanTooSmallError(DomainError):
    """Exhaustive enumeration requested with span_max < k - 1."""


class PoleError(DomainError):
    """Evaluation of the exterior map at its pole w = -c."""


class OnArcError(DomainError):
    """Inverse map requested at a point numerically on the arc."""


class KernelDegeneracyError(DomainError):
    """Szego kernel evaluated on the degeneracy set Phi(zeta)*conj(Phi(z)) = 1."""


class PrecisionError(SRFError):
    """A computation could not be trusted at the requested precision."""


class PrecisionCapError(PrecisionError):
    """The precision ladder exhausted its bit budget without stabilizing."""


class NotPositiveDefiniteError(PrecisionError):
    """Cholesky pivot failure: either a genuine singularity or too few bits.

    The failing pivot index is stored in ``pivot`` (None when a shifted
    copy of the matrix failed, see hp._certify).
    """

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"matrix not positive definite at pivot {pivot}")


class ConvergenceError(SRFError):
    """An iteration (inverse iteration, quadrature node doubling) hit its cap."""


class SingularSystemError(DomainError):
    """A singular exact system: duplicate Vandermonde nodes."""


class EnumerationBudgetError(SRFError):
    """Support enumeration would exceed the configured combinatorial budget."""


class InfeasibleError(SRFError):
    """No support within the cardinality cap explains the data at tolerance."""


class ThresholdTieError(SRFError):
    """Adversarial split is ambiguous: tied magnitudes at the k-th threshold."""
