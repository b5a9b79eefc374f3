"""Exception hierarchy shared across the package.

Split into two families so callers (and the CLI exit-status contract) can
distinguish "the computation could not be carried out" from "the computation
ran and the claimed property is false".
"""


class LyapmetricError(Exception):
    """Base class for operational failures."""


class SpecTextError(LyapmetricError):
    """Problems with a system specification text."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownIdentifierError(SpecTextError):
    pass


class DimensionMismatchError(SpecTextError):
    pass


class DomainEvaluationError(LyapmetricError):
    """Expression evaluation hit a singular point (division by zero, log of a
    nonpositive number, ...). Carries the offending subexpression text."""

    def __init__(self, message, subexpression=None):
        self.subexpression = subexpression
        if subexpression is not None:
            message = f"{message} in subexpression '{subexpression}'"
        super().__init__(message)


class IntegrationError(LyapmetricError):
    pass


class BlowUpError(IntegrationError):
    """State norm exceeded the configured bound: not forward complete on the
    requested horizon."""

    def __init__(self, t, norm, bound):
        self.t = t
        self.norm = norm
        self.bound = bound
        super().__init__(
            f"not forward complete on horizon: |state| = {norm:.3g} "
            f"exceeded {bound:.3g} at t = {t:.6g}"
        )


class StepSizeUnderflowError(IntegrationError):
    """Adaptive step fell below the representable floor (stiffness)."""


class TailHorizonError(LyapmetricError):
    """Decay data insufficient: the truncation tail bound cannot be met
    within the horizon cap."""


class DerivativeUnreliableError(LyapmetricError):
    """Richardson extrapolants of a flow-directional derivative disagree."""


class GeodesicDomainError(LyapmetricError):
    """A geodesic left the domain on which the metric is certified."""


class ClosednessError(LyapmetricError):
    """The one-form P(w) g(w) is not closed on the sampled domain, so no
    potential U exists there. Carries a witness point."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class FalsificationError(LyapmetricError):
    """A claimed stability/decay/certificate property failed on a concrete
    sample. Carries the witness and, when known, the pipeline stage that
    failed."""

    def __init__(self, message, witness=None, stage=None):
        self.witness = witness
        self.stage = stage
        super().__init__(message)
