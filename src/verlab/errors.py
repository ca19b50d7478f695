"""Exception hierarchy shared by all verlab modules, and the prime check."""

import functools

# Miller-Rabin with the first thirteen primes as bases is deterministic for
# every n below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015).  Twelve bases stop at 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


@functools.lru_cache(maxsize=None)
def require_prime(p: int) -> int:
    """Return p if it is prime, else raise ValueError.

    Every Verlinde category here exists only for a prime p.  The test is
    deterministic Miller-Rabin, so it takes bounded time for any int; p at
    or above PRIME_LIMIT, where those witnesses no longer decide, is rejected.
    """
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")
    if p >= PRIME_LIMIT:
        raise ValueError(f"p = {p} is too large: primality is decided below {PRIME_LIMIT}")
    if p in _WITNESSES:
        return p
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"p = {p} is not prime")
    return p


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
