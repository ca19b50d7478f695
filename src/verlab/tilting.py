"""Split Grothendieck ring of tilting modules of SL2 in characteristic p.

Indecomposable tilting characters are produced by the Donkin-style
recursion; tensor products decompose exactly into indecomposable tiltings
by greedy peeling, and negligibility at level p^n is the closed-form
predicate m >= p^n - 1.
"""
from __future__ import annotations

import functools

from .characters import Basis, Character, Decomposition, decompose, weyl_char
from .errors import require_prime


@functools.lru_cache(maxsize=None)
def tilting_char(p: int, m: int) -> Character:
    """Character of the indecomposable tilting module T_m.

    Base cases: T_m has Weyl character chi_m for m <= p-1, and
    chi_m + chi_{2p-2-m} for p <= m <= 2p-2.  For m >= 2p-1, factor
    m = m0 + p*m1 with the unique m0 in [p-1, 2p-2] and multiply T_{m0}
    by the Frobenius twist of T_{m1}.
    """
    require_prime(p)
    if m < 0:
        raise ValueError("highest weight must be non-negative")
    if m <= p - 1:
        return weyl_char(m)
    if m <= 2 * p - 2:
        return weyl_char(m) + weyl_char(2 * p - 2 - m)
    m0 = (p - 1) + (m - (p - 1)) % p
    m1 = (m - m0) // p
    return tilting_char(p, m0) * tilting_char(p, m1).frobenius_twist(p)


def tensor_decompose_tilt(p: int, a: int, b: int) -> Decomposition:
    """Decompose T_a (x) T_b into indecomposable tilting modules."""
    return decompose(tilting_char(p, a) * tilting_char(p, b), Basis.TILTING, p)


def is_negligible(p: int, n: int, m: int) -> bool:
    """True iff T_m dies in the level-p^n quotient.

    T_{p^n-1} generates the tensor ideal killed by the quotient functor;
    the indecomposables in the ideal are exactly those with m >= p^n - 1.
    The ideal-closure property test certifies this description.
    """
    if n < 1:
        raise ValueError("level exponent n must be >= 1")
    return m >= p**n - 1
