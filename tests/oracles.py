"""Test-only arithmetic on characters and fusion elements, and reference loops.

The library has no use for character differences, top weights, values at
a root of unity or products of fusion elements; the tests compare against
them.  Each is a plain function of the public data (``coeffs``, ``mults``
and the cached ``fuse`` rows), so it checks the library from outside.
``partitions_pentagonal_loop`` is the term-by-term recurrence that the
library's bulk partition table must reproduce.
"""
from __future__ import annotations

import math

from verlab import Character, FusionElement, fuse


def char_sub(x: Character, y: Character) -> Character:
    """The difference x - y, weight by weight."""
    out = x.coeffs
    for w, c in y.coeffs.items():
        out[w] = out.get(w, 0) - c
    return Character(out)


def is_zero(c: Character) -> bool:
    return not c.coeffs


def top_weight(c: Character) -> int:
    if is_zero(c):
        raise ValueError("zero character has no top weight")
    return max(c.coeffs)


def quantum_dimension(c: Character, p: int) -> float:
    """Value at q = exp(i*pi/p); real since the polynomial is symmetric.

    Values with magnitude below 1e-9 are snapped to exact zero.
    """
    val = 0.0
    for w, k in c.coeffs.items():
        val += k * (1.0 if w == 0 else 2.0 * math.cos(math.pi * w / p))
    if abs(val) < 1e-9:
        return 0.0
    return val


def fusion_product(x: FusionElement, y: FusionElement) -> FusionElement:
    """x (x) y, bilinear over the fusion rows fuse(p, a, b)."""
    out: dict[int, int] = {}
    for a, ma in x.mults.items():
        for b, mb in y.mults.items():
            for c, n in fuse(x.p, a, b).mults.items():
                out[c] = out.get(c, 0) + ma * mb * n
    return FusionElement(x.p, out)


def partitions_pentagonal_loop(n: int) -> list[int]:
    """[p(0), ..., p(n)] from Euler's recurrence, one signed term at a time."""
    table = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
    return table
