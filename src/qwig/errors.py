"""Exception types shared across the package."""


class QwigError(Exception):
    """Base class for all package-specific errors."""


class PoleAtOne(QwigError):
    """The classical limit q -> 1 does not exist for this element."""


class SignatureMismatch(QwigError):
    """Two objects belong to different gl(m|n) signatures."""


class IndexOutOfRange(QwigError):
    """A basis or root index lies outside 1..m+n."""


class NonIntegralWeight(QwigError):
    """Weight labels must be integers."""


class NotABranching(QwigError):
    """The candidate lower weight violates the betweenness conditions."""


class DegenerateRoots(QwigError):
    """Two characteristic roots coincide where distinctness is required."""


class AdmissibilityError(QwigError):
    """The requested shift index is not admissible for this branching."""


class InvalidArgument(QwigError, ValueError):
    """An argument lies outside the values a routine accepts."""


class ConsistencyError(QwigError):
    """Two independent computations of the same quantity disagree."""


class MultiplicityAmbiguous(QwigError):
    """A highest weight space has dimension greater than one."""


class NotRealized(QwigError):
    """The requested vector or module does not occur in this realization."""


class NotScalar(QwigError):
    """An operator expected to be a scalar multiple of the identity is not."""
