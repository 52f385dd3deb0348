"""Typed errors shared across the package.

The CLI maps these onto exit codes: validation problems (every ValueError
subclass here but DataError, including a result beyond the float64 range)
exit 2, malformed or non-finite data (DataError) exits 3, and a breached
internal invariant exits 4.  The half-length inverse takes bins 0..N/2
only, so a full-length spectrum handed to it is a SizeMismatchError.
"""


class InvalidSizeError(ValueError):
    """A size argument is zero, negative, or otherwise unusable."""


class SizeMismatchError(ValueError):
    """Two sequences (or a plan and a sequence) disagree in length."""


class SingularFrequencyError(ValueError):
    """The log image was requested at s = 0 where it is unbounded."""


class DegenerateFitError(ValueError):
    """Least-squares fit attempted against a (numerically) zero signal."""


class DomainError(ValueError):
    """A scalar parameter lies outside its documented range."""


class DecayError(ValueError):
    """Endpoint values too large for a whole-line quadrature truncation."""


class NonUniformGridError(ValueError):
    """Operation requires uniform node spacing."""


class DensityError(ValueError):
    """Path nodes too sparse to unwrap the argument unambiguously."""


class GeometryError(ValueError):
    """Evaluation point is on or outside the integration curve."""


class InsufficientDataError(ValueError):
    """Fewer samples than the statistic requires."""


class ResultOverflowError(ValueError):
    """A transform of finite input has a result beyond the float64 range.

    Every public transform runs at unit scale, so finite input of any
    magnitude is transformed without overflow; only a result whose peak
    exceeds the largest finite float64 (about 1.8e308) cannot be returned.
    The input is valid, so this is not a :class:`DataError`.
    """


class DataError(ValueError):
    """Malformed or non-finite input data (file contents, samples)."""


class InvariantBreach(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
