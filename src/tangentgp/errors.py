"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`TangentGpError`, so callers can catch one type at the boundary.
The subclasses split along how a caller should react: fix the call site
(contract), change the numerical setup (breakdown, fit), shrink the
problem (resource), fix the input file (config), or regenerate a stale
artifact (consistency).
"""


class TangentGpError(Exception):
    """Base class for all errors raised by tangentgp."""


class ContractViolationError(TangentGpError):
    """An argument or call sequence violated a documented precondition."""


class NumericBreakdownError(TangentGpError):
    """An iterative routine hit non-finite values or a singular subproblem."""


class ResourceLimitError(TangentGpError):
    """A dense computation would exceed its size cap; use the matrix-free path."""


class FitError(TangentGpError):
    """A posterior fit failed: a solve did not converge, or a task did not adapt.

    A failed solve carries its achieved relative residual so callers can
    decide whether to loosen the tolerance or raise the noise level.
    """

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


class TrainingDivergenceError(TangentGpError):
    """Training produced a non-finite loss or parameter.

    Records the epoch and, for a stacked last-layer refit, the index of
    the task whose head diverged.
    """

    def __init__(self, message, epoch=None, task=None):
        super().__init__(message)
        self.epoch = epoch
        self.task = task


class ConfigError(TangentGpError):
    """An experiment configuration failed to parse or validate."""


class ConsistencyError(TangentGpError):
    """Artifacts that should describe the same object do not: a stale cache,
    a checkpoint that disagrees with its config, networks of different layer shapes."""
