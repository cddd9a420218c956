"""Semantic exception hierarchy.

Every failure mode that callers are expected to branch on gets its own class.
The CLI maps these onto exit codes (numerical failures exit 3, validation
failures exit 4); library users can catch :class:`SquimldError` wholesale.
A point off the strict interior of the domain D is not an error: the array
kernel (gecore.q_kernel) returns NaN integrals there and says so in its ok
mask.
"""


class SquimldError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(SquimldError, ValueError):
    """Parameter combination outside the model's admissible region."""


class NoRoot(SquimldError):
    """No root where one was sought: H has no second zero above the bracket
    floor, or f keeps its sign up to the end gecore.root_toward steps to."""


class OutOfThetaRange(SquimldError):
    """theta lies outside the open interval where 1 - 2*theta*A(x) > 0."""


class HypothesisViolation(SquimldError):
    """A theorem hypothesis needed by the requested computation fails."""


class DegenerateWeights(SquimldError):
    """Importance weights collapsed: denominator effective sample size < 100."""


class DualNotCertified(SquimldError):
    """The dual solve for I2 ended with its duality gap above the threshold."""

    def __init__(self, x: float, eps: float, gap: float, threshold: float,
                 iterations: int, reason: str = ""):
        self.x, self.eps, self.gap, self.threshold = x, eps, gap, threshold
        self.iterations, self.reason = iterations, reason
        super().__init__(
            f"I2 dual not certified at x={x}, eps={eps}: gap {gap:.3e} > {threshold:g} "
            f"after {iterations} Newton steps" + (f" ({reason})" if reason else "")
        )
