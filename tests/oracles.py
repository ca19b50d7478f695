"""Test-only arithmetic on characters and fusion elements, and reference loops.

The library has no use for character differences, top weights, values at
a root of unity or products of fusion elements; the tests compare against
them.  Each is a plain function of the public data (``coeffs``, ``mults``
and the cached ``fuse`` rows), so it checks the library from outside.
``partitions_pentagonal_loop`` is the term-by-term recurrence that the
library's bulk partition table must reproduce, ``nabla_length_pair``
reads the dual Weyl lengths off a product of 2x2 digit matrices,
``jordan_fusion`` reads fusion rules off Jordan blocks, with no SL2 at all,
and ``verlinde_float_sum`` is the S-matrix sum in floating point, the
numeric check on the library's exact Verlinde count.
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


def verlinde_float_sum(p: int, a: int, b: int, c: int) -> int:
    """N_{ab}^c as the float sum over simple labels j of S_aj S_bj S_cj / S_0j.

    S_{xy} is proportional to sin((x+1)(y+1)pi/p).  The sum is rounded to
    the nearest integer, and its residual must be below 1e-6.
    """
    total = 0.0
    for j in range(p - 1):
        s = lambda x: math.sin((x + 1) * (j + 1) * math.pi / p)
        total += s(a) * s(b) * s(c) / s(0)
    total *= 2.0 / p
    rounded = round(total)
    assert abs(total - rounded) < 1e-6, f"residual {abs(total - rounded):.2e} at {(p, a, b, c)}"
    return rounded


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


def digit_matrices(p: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """mu(0), ..., mu(p-1): v(p*b + r) = mu(r) v(b) for v(m) = (ell(m), ell(m-1)).

    ell is p-regular (Allouche-Shallit): with last digit r, ell(p*b + r) is
    ell(b) + ell(b-1) for r <= p-2 and ell(b) for r = p-1, and the weight
    before it ends in r-1 over b, or in p-1 over b-1 when r = 0.
    """
    return [((1, 1), (0, 1))] + [((1, 1), (1, 1))] * (p - 2) + [((1, 0), (1, 1))]


def nabla_length_pair(p: int, m: int) -> tuple[int, int]:
    """(ell(m), ell(m-1)) as mu(r_0) mu(r_1) ... mu(r_k) (1, 0), r_0 the last digit of m."""
    mu = digit_matrices(p)
    digits = []
    while m:
        m, r = divmod(m, p)
        digits.append(r)
    x, y = 1, 0  # v(0) = (ell(0), ell(-1))
    for r in reversed(digits):
        (a, b), (c, d) = mu[r]
        x, y = a * x + b * y, c * x + d * y
    return x, y


def _span_basis(vectors: list[list[int]], p: int) -> list[list[int]]:
    """A basis over F_p of the span of ``vectors``, each row monic at its pivot."""
    pivots: dict[int, list[int]] = {}  # pivot column -> row; zero at earlier pivots
    for v in vectors:
        for col, row in pivots.items():
            if v[col]:
                v = [(x - v[col] * y) % p for x, y in zip(v, row)]
        col = next((i for i, x in enumerate(v) if x), None)
        if col is not None:
            inv = pow(v[col], -1, p)
            pivots[col] = [x * inv % p for x in v]
    return list(pivots.values())


def jordan_fusion(p: int, a: int, b: int) -> dict[int, int]:
    """N_{ab}^c of Ver_p as the semisimplification of Rep(Z/p) over F_p.

    The generator g acts on J_{a+1} (x) J_{b+1} as g (x) g, each factor one
    unipotent Jordan block.  With N = g (x) g - 1, the number of Jordan
    blocks of size >= k is rank N^{k-1} - rank N^k.  Blocks J_p are
    negligible and are dropped; J_{c+1} becomes L_c.
    """
    def apply_n(v: list[int]) -> list[int]:
        # N = n (x) 1 + 1 (x) n + n (x) n, n the shift e_i -> e_{i+1} of a block
        out = [0] * len(v)
        for i in range(a + 1):
            for j in range(b + 1):
                x = v[i * (b + 1) + j]
                if x:
                    for di, dj in ((1, 0), (0, 1), (1, 1)):
                        if i + di <= a and j + dj <= b:
                            k = (i + di) * (b + 1) + j + dj
                            out[k] = (out[k] + x) % p
        return out

    dim = (a + 1) * (b + 1)
    ranks = []  # rank N^0, rank N^1, ... while nonzero
    image = [[int(i == j) for j in range(dim)] for i in range(dim)]
    while image:
        ranks.append(len(image))
        image = _span_basis([apply_n(v) for v in image], p)
    ranks += [0, 0]
    # blocks of size exactly k: r_{k-1} - 2 r_k + r_{k+1}; J_p and up are dropped
    sizes = range(1, min(p, len(ranks) - 1))
    blocks = {k - 1: ranks[k - 1] - 2 * ranks[k] + ranks[k + 1] for k in sizes}
    return {c: n for c, n in blocks.items() if n}
