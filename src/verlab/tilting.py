"""Split Grothendieck ring of tilting modules of SL2 in characteristic p.

Indecomposable tilting characters are sums of Weyl characters read off the
base-p digits of m+1; tensor products decompose exactly into indecomposable
tiltings by greedy peeling, and negligibility at level p^n is the
closed-form predicate m >= p^n - 1.
"""
from __future__ import annotations

import functools

from .characters import Basis, Character, Decomposition, base_p_digits, decompose
from .errors import require_prime


def weyl_factors(p: int, m: int) -> list[int]:
    """Highest weights f of the Weyl factors Delta(f) of T_m, each once, ascending.

    With m+1 = [a_r, ..., a_0] in base p and a_r != 0, f = w - 1 for w in
    {a_r p^r +- a_{r-1} p^{r-1} +- ... +- a_0}, the sign varying only at
    nonzero digits (Tubbenhauer-Wedrich, Quivers for SL2 tilting modules).
    """
    require_prime(p)
    if m < 0:
        raise ValueError("highest weight must be non-negative")
    *low, top = base_p_digits(m + 1, p)
    ws = [top * p ** len(low)]
    # Top digit first: the gaps in ws exceed 2 a_j p^j, so ws stays ascending.
    for j in reversed(range(len(low))):
        if low[j]:
            ws = [w + s * low[j] * p**j for w in ws for s in (-1, 1)]
    return [w - 1 for w in ws]


@functools.lru_cache(maxsize=None)
def tilting_char(p: int, m: int) -> Character:
    """Character of the tilting module T_m: the sum of chi_f over its Weyl factors f.

    Every factor has the parity of m, so weight w of that parity has
    multiplicity #{f >= w}: one count per gap between consecutive factors.
    """
    factors = weyl_factors(p, m)
    coeffs: dict[int, int] = {}
    for i, (below, f) in enumerate(zip([-1, *factors], factors)):
        coeffs.update(dict.fromkeys(range(f, below, -2), len(factors) - i))
    return Character(coeffs)


def tensor_decompose_tilt(p: int, a: int, b: int) -> Decomposition:
    """Decompose T_a (x) T_b into indecomposable tilting modules."""
    return decompose(tilting_char(p, a) * tilting_char(p, b), Basis.TILTING, p)


def is_negligible(p: int, n: int, m: int) -> bool:
    """True iff T_m dies in the level-p^n quotient.

    T_{p^n-1} generates the tensor ideal killed by the quotient functor;
    the indecomposables in the ideal are exactly those with m >= p^n - 1.
    The ideal-closure property test certifies this description.
    """
    require_prime(p)
    if n < 1:
        raise ValueError("level exponent n must be >= 1")
    return m >= p**n - 1
