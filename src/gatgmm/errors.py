"""Exception hierarchy shared by all gatgmm modules.  Every error pickles with
its fields, so it crosses a process pool whole."""


class GatgmmError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(GatgmmError):
    """An argument violates a documented precondition (shape, range, finiteness)."""


class NotPsd(GatgmmError):
    """Matrix has an eigenvalue below the near-PSD tolerance."""


class NotStronglyConcave(GatgmmError):
    """Inner maximization lacks a positive strong-concavity margin.

    The offending margin is stored in ``margin``.
    """

    def __init__(self, margin: float):
        self.margin = float(margin)
        super().__init__(f"strong concavity margin {self.margin:.6g} <= 0")

    def __reduce__(self):
        return NotStronglyConcave, (self.margin,)


class NotCConcave(GatgmmError):
    """Discriminator curvature bound >= 1, so the c-transform problem is not concave."""


class InfeasibleRegime(GatgmmError):
    """Step-size formulas require lambda > 2*eta."""


class Diverged(GatgmmError):
    """Training left the finite numbers at ``iteration``; ``cause`` names the
    check that fired, one of the keys of ``CAUSES``."""

    CAUSES = {
        "disc_step": "non-finite discriminator gradient or step",
        "gen_step": "non-finite generator gradient or step",
        "eval_cov": "C C^T of a finite C overflows at the eval point",
    }

    def __init__(self, iteration: int, cause: str):
        self.iteration = int(iteration)
        self.cause = cause
        super().__init__(f"{self.CAUSES[cause]} in iteration {self.iteration}")

    def __reduce__(self):
        return Diverged, (self.iteration, self.cause)


class SingularCovariance(GatgmmError):
    """Covariance matrix is singular (after flooring, where applicable)."""


class InsufficientSamples(GatgmmError):
    """A sample split left too few points to estimate the required statistics."""


class TooLarge(GatgmmError):
    """Problem size exceeds the documented limit for an exact solver."""


class ParseError(GatgmmError):
    """Malformed data file; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
