"""The package's two exception types, one per CLI exit code: UsageError
(exit 1) for an input the operation refuses, NumericalError (exit 2) for a
computation that cannot give an answer at a valid input."""


class UsageError(ValueError):
    """An input the operation refuses: out of its domain (zero wave vector,
    class member on |k| = |p|, ...), mismatched windows, unknown command,
    malformed config."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge, produced non-finite values
    or was asked for a point where it is not defined (the essential band,
    B's spectral curve); the message carries the failing context."""
