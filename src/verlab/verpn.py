"""Simple-object calculus of the level-p^n Verlinde categories.

Indices, Steinberg digit factorization, the embedding of level p^{n-1}
into level p^n, the odd line, and a knowledge base for symmetric-power
vanishing.  The knowledge base never guesses: it either fires an explicit
rule (with its provenance) or answers Unknown.
"""
from __future__ import annotations

import functools
import json
import os
from enum import Enum
from typing import NamedTuple

from .errors import DigitOutOfRange, EvenPrime, base_p_digits, check_index, max_index, require_prime


def steinberg_digits(p: int, n: int, i: int) -> tuple[int, ...]:
    """Base-p digits of i, most significant first, n digits.

    The index bound guarantees the leading digit is at most p-2.
    """
    check_index(p, n, i)
    return tuple(reversed(base_p_digits(i, p, n)))


def steinberg_product(p: int, n: int, digits: tuple[int, ...] | list[int]) -> int:
    """Index sum_j p^{n-j} i_j of the simple object; inverse of the digit map."""
    max_index(p, n)  # p and n >= 1 before any digit is read
    digits = tuple(digits)
    if len(digits) != n:
        raise DigitOutOfRange(f"expected {n} digits, got {len(digits)}")
    for d in digits:
        if not 0 <= d <= p - 1:
            raise DigitOutOfRange(f"digit {d} outside [0, {p - 1}]")
    if digits[0] > p - 2:
        raise DigitOutOfRange(f"leading digit {digits[0]} exceeds {p - 2}")
    return sum(d * p**j for j, d in enumerate(reversed(digits)))


def embed(p: int, n: int, i: int) -> int:
    """Index of L_i of level p^n inside level p^{n+1}: multiply by p."""
    check_index(p, n, i)
    return p * i


def odd_line(p: int, n: int) -> int:
    """Index of the odd line generating sVec: p^{n-1}(p-2)."""
    require_prime(p)
    if p == 2:
        raise EvenPrime("no odd line at p = 2")
    if n < 1:
        raise ValueError("level exponent n must be >= 1")
    return p ** (n - 1) * (p - 2)


def is_invertible_simple(p: int, n: int, i: int) -> bool:
    """True for the unit and (odd p) the odd line; the only invertibles."""
    check_index(p, n, i)
    if i == 0:
        return True
    return p > 2 and i == odd_line(p, n)


class Sym(Enum):
    ZERO = "Zero"
    IS_UNIT = "IsUnit"
    UNKNOWN = "Unknown"


class SymStatus(NamedTuple):
    status: Sym
    rule: str
    has_unit_summand: bool


@functools.cache
def _load_fact_file() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "sym_power_facts.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _vanishing_bounds(p: int, n: int, i: int) -> list[tuple[int, str]]:
    """(bound, rule name) pairs: Sym^k L_i = 0 for all k >= bound.

    Rules evaluated in fixed order: prime-power index, top-digit index,
    odd-line shifted index.
    """
    bounds: list[tuple[int, str]] = []
    # Sym^{p^{n-j} - 1} L_{p^j} = 0 for 0 <= j < n
    for j in range(n):
        if i == p**j:
            bounds.append(
                (p ** (n - j) - 1, f"vanishing rule: Sym^(p^{n - j}-1) L_(p^{j}) = 0")
            )
    # Sym^{p-m} L_{p^{n-1} m} = 0 for 0 < m < p-1
    if i % p ** (n - 1) == 0:
        m = i // p ** (n - 1)
        if 0 < m < p - 1:
            bounds.append(
                (p - m, f"vanishing rule: Sym^(p-{m}) L_(p^{n - 1}*{m}) = 0")
            )
    # Sym^{m+2} L_{odd + p^j m} = 0 for 0 <= j < n-1, 0 <= m < p
    if p > 2 and n >= 2:
        base = odd_line(p, n)
        rem = i - base
        if rem >= 0:
            for j in range(n - 1):
                if rem % p**j == 0:
                    m = rem // p**j
                    if 0 <= m < p:
                        bounds.append(
                            (
                                m + 2,
                                f"vanishing rule: Sym^({m}+2) L_(oddline+p^{j}*{m}) = 0",
                            )
                        )
    return bounds


def sym_power_status(p: int, n: int, i: int, k: int) -> SymStatus:
    """Best known status of Sym^k L_i at level p^n.

    Order of evaluation: trivial unit cases, IsUnit fact-table entries at
    k, then the Zero fact-table entries and the three vanishing rules, each
    with upward closure.  Anything else is Unknown.
    """
    check_index(p, n, i)
    if k < 0:
        raise ValueError("power k must be >= 0")

    facts = _load_fact_file()
    summand = any(
        f["p"] == p and f["n"] == n and f["index"] == i and f["power"] == k
        for f in facts["unit_summand_facts"]
    )

    if k == 0:
        return SymStatus(Sym.IS_UNIT, "Sym^0 is the unit", summand)
    if i == 0:
        return SymStatus(Sym.IS_UNIT, "all symmetric powers of the unit are the unit", summand)

    matching = [f for f in facts["facts"] if f["p"] == p and f["n"] == n and f["index"] == i]
    for f in matching:
        if f["status"] == "IsUnit" and k == f["power"]:
            return SymStatus(Sym.IS_UNIT, f["provenance"], summand)

    zero_facts = [(f["power"], f["provenance"]) for f in matching if f["status"] == "Zero"]
    for bound, rule in zero_facts + _vanishing_bounds(p, n, i):
        if k >= bound:
            if k > bound:
                rule += f" (upward closure from k={bound})"
            return SymStatus(Sym.ZERO, rule, summand)

    return SymStatus(Sym.UNKNOWN, "no rule matches", summand)
