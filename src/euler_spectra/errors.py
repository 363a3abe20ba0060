"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation
    (zero wave vector, excluded lattice site, ...)."""


class UsageError(ValueError):
    """API misuse: mismatched windows, unknown command, malformed config."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or produced non-finite
    values; the message carries the failing context."""


class EssentialBandError(NumericalError):
    """The requested point lies on (or too close to) the essential band,
    where the continued fractions do not converge."""


class OnCircleError(DomainError):
    """A class member sits on the circle |k| = |p| (rho vanishes there);
    the caller must switch to the half-chain treatment."""


class OnSpectralCurveError(NumericalError):
    """Resolvent requested on the spectral curve itself."""


class SpectralPointSetError(NumericalError):
    """Resolvent requested at a boundary point of the spectral curve,
    lambda_b = +-2, where the roots of w + 1/w = lambda_b meet at w = +-1
    and the denominator of the kernel w^|n - n'| / (w - 1/w) vanishes."""
