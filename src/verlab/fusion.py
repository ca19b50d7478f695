"""Semisimple fusion ring of the level-p Verlinde quotient.

Fusion products are computed structurally through the tilting quotient
(tensor-decompose, drop negligible summands).  The exact S-matrix sum and
the truncated Clebsch-Gordan closed form are kept as independent oracles,
never as the production route.  fpdim certifies every [a+1]_q at once from
the p - 1 rows of the generator L_1.  The only floats are outputs (fpdim, gd).
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import IndexOutOfRange, check_index, require_prime
from . import tilting


class FusionElement:
    """Non-negative integer combination of the simples L_0..L_{p-2}."""

    __slots__ = ("_p", "_mults")

    def __init__(self, p: int, mults: dict[int, int] | None = None):
        self._p = require_prime(p)
        mults = mults or {}
        if any(type(x) is not int for item in mults.items() for x in item):
            raise ValueError("indices and multiplicities must be ints")
        if mults:
            check_index(p, 1, min(mults))
            check_index(p, 1, max(mults))
        if any(m < 0 for m in mults.values()):
            raise ValueError("multiplicities must be non-negative")
        self._mults = {i: m for i, m in mults.items() if m}

    @classmethod
    def simple(cls, p: int, a: int) -> "FusionElement":
        return cls(p, {a: 1})

    @property
    def p(self) -> int:
        return self._p

    @property
    def mults(self) -> dict[int, int]:
        return dict(self._mults)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FusionElement)
            and self.p == other.p
            and self._mults == other._mults
        )

    def __repr__(self) -> str:
        items = ", ".join(f"L{i}: {m}" for i, m in sorted(self._mults.items()))
        return f"FusionElement(p={self.p}, {{{items}}})"


@functools.lru_cache(maxsize=None)
def fuse(p: int, a: int, b: int) -> FusionElement:
    """Fusion product L_a (x) L_b via the tilting quotient.

    Computed once per (p, a, b) and shared: every later call returns the
    same element, which is read-only (``mults`` hands out a copy).
    """
    check_index(p, 1, a)
    check_index(p, 1, b)
    terms = sorted(tilting.tensor_decompose_tilt(p, a, b).terms.items())
    return FusionElement(p, {m: n for m, n in terms if not tilting.is_negligible(p, 1, m)})


def clebsch_gordan_truncated(p: int, a: int, b: int, c: int) -> int:
    """Closed-form oracle: N_{ab}^c is 0 or 1 by the truncated CG rule."""
    for x in (a, b, c):
        check_index(p, 1, x)
    if (a + b - c) % 2 != 0:
        return 0
    if abs(a - b) <= c <= min(a + b, 2 * (p - 2) - (a + b)):
        return 1
    return 0


def verlinde_oracle(p: int, a: int, b: int, c: int) -> int:
    """S-matrix oracle for the fusion coefficient N_{ab}^c, summed exactly.

    With S_{xy} proportional to sin((x+1)(y+1)pi/p), and the sum taken over
    all 2p-th roots of unity q (q = +-1 add 0), N_{ab}^c is half the sum of
    the coefficients g_m, 2p | m, of g = (2 - q^2 - q^-2)[a+1][b+1][c+1] =
    -(q^{a+1} - q^{-a-1})(q^{b+1} - q^{-b-1}) sum_{j=0}^{c} q^{c-2j}.  As g
    is symmetric under q -> 1/q, that is the number of j <= c with
    e + c - 2j = 0 mod 2p for e = a-b, less that for e = a+b+2: at most one
    each, since c < p.  At the slot c = p-1, past the simples, it is 0.
    """
    check_index(p, 1, a)
    check_index(p, 1, b)
    if not 0 <= c <= p - 1:
        raise IndexOutOfRange(f"output index {c} outside [0, {p - 1}] for p={p}")
    if (a + b + c) % 2:
        return 0
    hit = lambda e: (e + c) // 2 % p <= c  # the only j in [0, p) with e + c = 2j mod 2p
    return hit(a - b) - hit(a + b + 2)


def fpdim(p: int, a: int) -> float:
    """Frobenius-Perron dimension of L_a, certified exactly from the rows of L_1.

    Each row L_g (x) L_b, g = min(1, p-2) (g = 0 only at p = 2, where the
    ring is Z), must be the truncated Clebsch-Gordan row L_{b-g} + L_{b+g},
    terms outside 0..p-2 dropped.  Then M v = [2]_q v for the fusion matrix
    M of L_1 and the strictly positive v_b = [b+1]_q, q = exp(i*pi/p), so by
    Perron-Frobenius FPdim(L_1) = [2]_q; as L_1 generates the ring,
    FPdim(L_a) = [a+1]_q for every a.  A row that differs raises
    AssertionError.
    """
    check_index(p, 1, a)
    g = min(1, p - 2)
    for b in range(p - 1):
        if fuse(p, g, b)._mults != {c: 1 for c in (b - g, b + g) if 0 <= c <= p - 2}:
            raise AssertionError(f"fusion row L_{g} (x) L_{b} is not truncated CG at p={p}")
    return math.sin((a + 1) * math.pi / p) / math.sin(math.pi / p)


class GdEstimate(NamedTuple):
    """Root sequence ell(x^{(x)n})^(1/n) and its final value."""

    roots: list[float]
    final: float
    lengths: list[int]


def gd_estimate(p: int, x: FusionElement, n_max: int) -> GdEstimate:
    """Growth dimension of x as the limit of ell(x^{(x)n})^(1/n).

    The multiplicities of x^{(x)n} advance one factor of x at a time over
    the cached fusion rows.  Lengths are exact arbitrary-precision integers;
    the raw root sequence is reported without extrapolation.
    """
    if p != x.p:
        raise ValueError(f"p = {p} does not match the element's p = {x.p}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    roots: list[float] = []
    lengths: list[int] = []
    power = x._mults
    for n in range(1, n_max + 1):
        if n > 1:
            step: dict[int, int] = {}
            for a, ma in power.items():
                for b, mb in x._mults.items():
                    for c, k in fuse(p, a, b)._mults.items():
                        step[c] = step.get(c, 0) + ma * mb * k
            power = step
        ell = sum(power.values())
        if not ell:
            raise ValueError("log of non-positive value")
        lengths.append(ell)
        roots.append(math.exp(math.log(ell) / n))
    return GdEstimate(roots=roots, final=roots[-1], lengths=lengths)
