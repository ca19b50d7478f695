"""F_p power-series and p-adic digit arithmetic for Hilbert series.

The central identity: the Hilbert series of a symmetric algebra is
(1-t)^{-D} for a p-adic integer D, where (1-t)^d for d in Z_p is defined
digitwise as the product over j of (1 - t^{p^j})^{d_j}.  This module
expands that product one digit block at a time (Lucas's theorem), recovers
the exponent from a series by reading digit j at t^{p^j} and certifying it
by re-expansion, and implements the finite-symmetric-algebra rule and the
extension transform.
"""
from __future__ import annotations

import math

from .errors import (
    BadTopDim, InsufficientPrecision, NotAPurePower, NotPPower, base_p_digits, require_prime
)

DEFAULT_TRUNCATION = 64


class PadicDigits:
    """Base-p digit prefix d_0..d_{M-1} of a p-adic integer, mod p^M."""

    __slots__ = ("p", "digits")

    def __init__(self, p: int, digits: tuple[int, ...]):
        require_prime(p)
        for d in digits:
            if not 0 <= d < p:
                raise ValueError(f"digit {d} outside [0, {p - 1}]")
        self.p = p
        self.digits = digits

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PadicDigits) and (self.p, self.digits) == (other.p, other.digits)

    def __hash__(self) -> int:
        return hash((self.p, self.digits))

    def __repr__(self) -> str:
        return f"PadicDigits(p={self.p}, digits={self.digits})"

    @property
    def precision(self) -> int:
        return len(self.digits)

    def to_int(self) -> int:
        """Representative in [0, p^M)."""
        return sum(d * self.p**j for j, d in enumerate(self.digits))

    def to_signed_int(self) -> int:
        """Balanced representative: the integer of least absolute value."""
        val = self.to_int()
        mod = self.p**self.precision
        return val - mod if val > mod // 2 else val


def padic_of_int(x: int, p: int, m: int) -> PadicDigits:
    """Digits of x mod p^M; negative integers via the complement.

    M = 0 gives the empty prefix, the exponent read off a series truncated
    at t^0.
    """
    require_prime(p)
    if m < 0:
        raise ValueError("precision M must be >= 0")
    return PadicDigits(p, tuple(base_p_digits(x % p**m, p, m)))


def padic_neg(a: PadicDigits) -> PadicDigits:
    return padic_of_int(-a.to_int(), a.p, a.precision)


class FpSeries:
    """Truncated power series over F_p; coeffs[i] is the t^i coefficient."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        require_prime(p)
        self.p = p
        self.coeffs = tuple(c % p for c in coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FpSeries) and (self.p, self.coeffs) == (other.p, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"FpSeries(p={self.p}, coeffs={self.coeffs})"

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "FpSeries") -> "FpSeries":
        if self.p != other.p:
            raise ValueError("mismatched primes")
        n = min(self.truncation, other.truncation)
        xs = [(i, a) for i, a in enumerate(self.coeffs[: n + 1]) if a]
        ys = [(j, b) for j, b in enumerate(other.coeffs[: n + 1]) if b]
        out = [0] * (n + 1)
        for i, a in xs:
            for j, b in ys:
                if i + j > n:
                    break
                out[i + j] += a * b
        return FpSeries(self.p, tuple(out))


def one_minus_t_pow(d: PadicDigits, n: int = DEFAULT_TRUNCATION) -> FpSeries:
    """Digit-product expansion of (1-t)^d truncated at t^N.

    Factor j contributes only for p^j <= N; the precision must satisfy
    p^M > N so that all contributing digits are known.  By Lucas's theorem
    the t^k coefficient is the product over j of (-1)^{k_j} C(d_j, k_j)
    for the base-p digits k_j of k, so the coefficients of t^0..t^{p^{j+1}-1}
    are the block of factor j spread over those of t^0..t^{p^j-1}.  Only
    the last block is cut short, and it still reaches t^N.
    """
    if n < 0:
        raise ValueError(f"truncation N = {n} must be >= 0")
    p = d.p
    if p**d.precision <= n:
        raise InsufficientPrecision(
            f"p^M = {p**d.precision} <= N = {n}: not enough digits"
        )
    coeffs = [1]
    for j, dj in enumerate(d.digits):
        if p**j > n:
            break
        block = [(-1) ** i * math.comb(dj, i) % p for i in range(min(p, n // p**j + 1))]
        coeffs = [b * c % p for b in block for c in coeffs]
    return FpSeries(p, tuple(coeffs[: n + 1]))


def one_minus_t_pow_int(x: int, p: int, n: int = DEFAULT_TRUNCATION) -> FpSeries:
    """(1-t)^x for an integer x, with precision chosen automatically."""
    return one_minus_t_pow(padic_of_int(x, p, recoverable_digits(p, n)), n)


def recoverable_digits(p: int, n: int) -> int:
    """Number of p-adic digits determined by a series truncated at t^N.

    That is the least M >= 1 with p^M > N, the digit count of max(N, 0).
    """
    return len(base_p_digits(max(n, 0), p))


def dimplus_from_series(s: FpSeries) -> PadicDigits:
    """Recover e with s = (1-t)^e; the p-adic dimension is then -e.

    Only the factor (1 - t^{p^j})^{e_j} reaches t^{p^j}, so digit j is minus
    the t^{p^j} coefficient, for every p^j <= N.  Re-expanding (1-t)^e and
    comparing it with s is the certificate: the first coefficient t^k that
    differs means the input is not a pure power, and its level (the number
    of base-p digits of k, minus 1) is reported.
    """
    p = s.p
    if not s.coeffs or s.coeffs[0] != 1:
        raise NotAPurePower("series must have constant term 1")
    n = s.truncation
    digits: list[int] = []
    while p ** len(digits) <= n:
        digits.append(-s.coeffs[p ** len(digits)] % p)
    e = PadicDigits(p, tuple(digits))
    expanded = one_minus_t_pow(e, n)
    if expanded != s:
        k = next(k for k, (a, b) in enumerate(zip(expanded.coeffs, s.coeffs)) if a != b)
        raise NotAPurePower(
            f"t^{k} differs from (1-t)^e at level {len(base_p_digits(k, p)) - 1}"
        )
    return e


def dimplus_of_finite_sym(dmax: int, p: int | None = None) -> int:
    """p-adic dimension of an object whose top nonzero symmetric power is dmax.

    Returns -dmax whatever the prime p; a given p is only checked to be prime.
    """
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    if p is not None:
        require_prime(p)
    return -dmax


def is_p_power(x: int, p: int) -> bool:
    """True when x = p^k for some k >= 0: one base-p digit 1, the rest 0."""
    require_prime(p)
    return x >= 1 and sum(base_p_digits(x, p)) == 1


def extension_transform(
    p: int,
    nlen: int,
    dimplus_v: int | PadicDigits,
    dimplus_v_dual: int | PadicDigits,
) -> tuple[int | PadicDigits, int | PadicDigits]:
    """p-adic dimensions of a unit-by-V extension E and of its dual.

    For an extension of V by the unit whose symmetric-algebra image of the
    unit line has length nlen (necessarily a power of p):
    Dim+(E) = Dim+(V) + 1 - nlen and Dim+(E dual) = Dim+(V dual) + 1.
    """
    if not is_p_power(nlen, p):
        raise NotPPower(f"nlen = {nlen} is not a power of p = {p}")

    def shift(d: int | PadicDigits, k: int) -> int | PadicDigits:
        if isinstance(d, PadicDigits):
            if d.p != p:
                raise ValueError("mismatched primes")
            return padic_of_int(d.to_int() + k, p, d.precision)
        return d + k

    return shift(dimplus_v, 1 - nlen), shift(dimplus_v_dual, 1)


def extension_series(hs_v: FpSeries, nlen: int) -> FpSeries:
    """Series-level form of the extension transform.

    HS_E = (1 + t + ... + t^{nlen-1}) * HS_V; since nlen is a power of p
    the prefactor equals (1-t)^{nlen-1}, so the digit-level shift by
    1 - nlen agrees.  The product is a running sum over a window of nlen
    coefficients of HS_V.
    """
    p = hs_v.p
    if not is_p_power(nlen, p):
        raise NotPPower(f"nlen = {nlen} is not a power of p = {p}")
    hs = hs_v.coeffs
    window, out = 0, []
    for k, c in enumerate(hs):
        window += c - (hs[k - nlen] if k >= nlen else 0)
        out.append(window)
    return FpSeries(p, tuple(out))


def frobenius_palindromy_check(p: int, hs: list[int] | tuple[int, ...], d: int) -> bool:
    """Dimension shadow of invertibility of the top symmetric power.

    For a finite symmetric algebra with top degree d, the Hilbert
    coefficients must satisfy hs[i] = hs[d-i] * hs[d] mod p, with
    hs[d] = +-1 (the top power is invertible).
    """
    require_prime(p)
    if d < 0:
        raise ValueError(f"top degree d = {d} must be non-negative")
    hs = [c % p for c in hs]
    if len(hs) != d + 1:
        raise ValueError(f"expected {d + 1} coefficients, got {len(hs)}")
    if hs[0] != 1:
        raise ValueError("Hilbert series must start with 1")
    top = hs[d]
    if top not in (1, (p - 1) % p):
        raise BadTopDim(f"top coefficient {top} is not +-1 mod {p}")
    return all(hs[i] == (hs[d - i] * top) % p for i in range(d + 1))
