"""Exception types shared across the package."""


class CmaLabError(Exception):
    """Base class for all package errors."""


class SingularForm(CmaLabError):
    """Hermitian form is numerically singular."""


class NotPositiveDefinite(CmaLabError):
    """A positive-definite matrix was required."""


class IdentityViolated(CmaLabError):
    """A computed value breaks an identity that holds in exact arithmetic,
    for example from a non-finite input or an overflow."""


class DimensionMismatch(CmaLabError):
    """Point dimension does not match the object's dimension."""


class UnsupportedFamily(CmaLabError):
    """The requested quantity has no closed form for this family."""


class SingularPoint(CmaLabError):
    """Evaluation requested on the singular set of a limit function."""


class BoundaryNode(CmaLabError):
    """Finite-difference stencil does not fit at this node."""


class NonFiniteSample(CmaLabError):
    """Sampled function returned a non-finite value outside the excluded set."""

    def __init__(self, node, value):
        self.node = node
        self.value = value
        super().__init__(f"non-finite sample {value!r} at node {node!r}")


class GridTooLarge(CmaLabError):
    """Grid exceeds the node budget."""


class NotPlurisubharmonic(CmaLabError):
    """Iterate lost positive definiteness of its complex Hessian."""

    def __init__(self, node=None, message="finite-difference complex Hessian not positive definite"):
        self.node = node
        if node is not None:
            message = f"{message} at node {node!r}"
        super().__init__(message)


class NonConverged(CmaLabError):
    """Newton solve stopped before reaching the residual tolerance."""

    def __init__(self, result, message="Newton iteration did not converge"):
        self.result = result
        super().__init__(message)


class DegenerateFit(CmaLabError):
    """Oscillation data too degenerate for a log-log fit."""


class BasePointOffSingularSet(CmaLabError):
    """Viscosity jet test requires a base point on the singular slice."""


class ConfigError(CmaLabError):
    """Bad run configuration or I/O problem (CLI exit code 2)."""
