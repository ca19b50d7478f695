"""Exact character ring of SL2.

Characters of SL2-modules are symmetric Laurent polynomials in q with
integer coefficients.  We store them folded: only the coefficient of
q^w + q^{-w} for w > 0 and of the constant term for w = 0, so palindromy
is structural rather than checked.
"""
from __future__ import annotations

import functools
from collections import Counter
from enum import Enum
from typing import Mapping, NamedTuple

from .errors import NegativeCoefficient, require_prime


class Basis(Enum):
    WEYL = "weyl"
    SIMPLE = "simple"
    TILTING = "tilting"


class Character:
    """A symmetric Laurent polynomial, folded onto non-negative weights."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        coeffs = coeffs or {}
        if min(coeffs, default=0) < 0:
            raise ValueError("folded storage uses non-negative weights only")
        self._coeffs = {w: c for w, c in coeffs.items() if c}

    # -- basic views ------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Character) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        items = ", ".join(f"{w}: {c}" for w, c in sorted(self._coeffs.items()))
        return f"Character({{{items}}})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "Character") -> "Character":
        out = dict(self._coeffs)
        for w, c in other._coeffs.items():
            out[w] = out.get(w, 0) + c
        return Character(out)

    def scale(self, k: int) -> "Character":
        return Character({w: k * c for w, c in self._coeffs.items()})

    def _unfold(self) -> dict[int, int]:
        full: dict[int, int] = {}
        for w, c in self._coeffs.items():
            full[w] = c
            if w > 0:
                full[-w] = c
        return full

    def __mul__(self, other: "Character") -> "Character":
        full_a = self._unfold()
        full_b = other._unfold()
        prod: dict[int, int] = {}
        for w1, c1 in full_a.items():
            for w2, c2 in full_b.items():
                u = w1 + w2
                prod[u] = prod.get(u, 0) + c1 * c2
        return Character({w: c for w, c in prod.items() if w >= 0})

    # -- specializations --------------------------------------------------

    def dimension(self) -> int:
        """Value at q = 1."""
        return sum(c * (1 if w == 0 else 2) for w, c in self._coeffs.items())


def weyl_char(m: int) -> Character:
    """Character of the Weyl/dual-Weyl module: q^m + q^{m-2} + ... + q^{-m}."""
    if m < 0:
        raise ValueError("highest weight must be non-negative")
    return Character(dict.fromkeys(range(m, -1, -2), 1))


def base_p_digits(m: int, p: int, width: int = 1) -> list[int]:
    """Base-p digits of m >= 0, least significant first, zero-padded to width.

    The one place an integer is written in base p: Steinberg labels,
    p-adic digit vectors and digit counts all come from here.
    """
    require_prime(p)
    if m < 0:
        raise ValueError(f"m = {m} has no base-p digits: it must be >= 0")
    digits = []
    while m or len(digits) < width:
        m, d = divmod(m, p)
        digits.append(d)
    return digits


@functools.lru_cache(maxsize=None)
def simple_char(p: int, m: int) -> Character:
    """Character of the simple module L_m in characteristic p.

    Steinberg: with base-p digits m = sum m_j p^j, the weights of L_m are
    the sums sum p^j w_j with each w_j in {m_j, m_j - 2, ..., -m_j}.
    """
    if m < 0:
        raise ValueError("highest weight must be non-negative")
    sums = [0]
    for j, d in enumerate(base_p_digits(m, p)):
        sums = [s + v for v in range(d * p**j, -d * p**j - 1, -2 * p**j) for s in sums]
    return Character(Counter(w for w in sums if w >= 0))


class Decomposition(NamedTuple):
    """Exact expansion of a character in one of the three bases."""

    basis: Basis
    p: int | None
    terms: dict[int, int]

    def total_multiplicity(self) -> int:
        return sum(self.terms.values())

    def reconstruct(self) -> Character:
        out = Character()
        for m, mult in self.terms.items():
            out = out + basis_char(self.basis, self.p, m).scale(mult)
        return out


def basis_char(kind: Basis, p: int | None, m: int) -> Character:
    if kind is Basis.WEYL:
        return weyl_char(m)
    if p is None:
        raise ValueError(f"{kind.value} basis needs a prime p")
    if kind is Basis.SIMPLE:
        return simple_char(p, m)
    from . import tilting  # late import: tilting builds on this module

    return tilting.tilting_char(p, m)


def decompose(c: Character, basis: Basis, p: int | None = None) -> Decomposition:
    """Greedy unitriangular peeling by strictly decreasing top weight.

    Every basis character equals the Weyl character of its label plus
    strictly lower terms, so the multiplicity at the current top weight is
    forced.  A negative multiplicity at any step means the input is not a
    non-negative combination of the basis and we abort.
    """
    remainder = c.coeffs
    terms: dict[int, int] = {}
    while remainder:
        m = max(remainder)
        mult = remainder[m]
        if mult < 0:
            raise NegativeCoefficient(
                f"coefficient {mult} at weight {m} while peeling in basis "
                f"{basis.value}"
            )
        b = basis_char(basis, p, m)
        for w, bc in b.coeffs.items():
            remainder[w] = remainder.get(w, 0) - mult * bc
            if remainder[w] == 0:
                del remainder[w]
        terms[m] = mult
    return Decomposition(basis, p, terms)
