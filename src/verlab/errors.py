"""Exception hierarchy shared by all verlab modules."""


class VerlabError(Exception):
    """Base class; ``name`` is the stable machine-readable error identifier."""

    @property
    def name(self) -> str:
        return type(self).__name__


class NegativeCoefficient(VerlabError):
    """A character is not a non-negative combination of the requested basis."""


class IndexOutOfRange(VerlabError):
    """Simple-object index outside the valid range."""


class DigitOutOfRange(VerlabError):
    """Steinberg digit outside [0, p-1], or leading digit > p-2."""


class EvenPrime(VerlabError):
    """Operation requires an odd prime."""


class NumericalInstability(VerlabError):
    """Floating-point residual too large to round safely."""


class InsufficientPrecision(VerlabError):
    """Not enough p-adic digits to determine the requested truncation."""


class NotAPurePower(VerlabError):
    """Series is not of the form (1-t)^e over F_p."""


class NotPPower(VerlabError):
    """Integer is not a power of p."""


class BadTopDim(VerlabError):
    """Top Hilbert coefficient is not +-1 mod p."""


class MissingHomDim(VerlabError):
    """Length provider has no hom_dim attached."""
