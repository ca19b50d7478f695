"""F_p power-series and p-adic digit arithmetic for Hilbert series.

The central identity: the Hilbert series of a symmetric algebra is
(1-t)^{-D} for a p-adic integer D, where (1-t)^d for d in Z_p is defined
digitwise as the product over j of (1 - t^{p^j})^{d_j}.  This module
expands that product, recovers the exponent from a series by reading one
digit per p-adic level, and implements the finite-symmetric-algebra rule
and the extension transform.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .characters import base_p_digits
from .errors import BadTopDim, InsufficientPrecision, NotAPurePower, NotPPower, require_prime

DEFAULT_TRUNCATION = 64


@dataclass(frozen=True)
class PadicDigits:
    """Base-p digit prefix d_0..d_{M-1} of a p-adic integer, mod p^M."""

    p: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        for d in self.digits:
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} outside [0, {self.p - 1}]")

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
    """Digits of x mod p^M; negative integers via the complement."""
    require_prime(p)
    if m < 1:
        raise ValueError("precision M must be >= 1")
    return PadicDigits(p, tuple(base_p_digits(x % p**m, p, m)))


def padic_add(a: PadicDigits, b: PadicDigits) -> PadicDigits:
    if a.p != b.p:
        raise ValueError("mismatched primes")
    m = min(a.precision, b.precision)
    return padic_of_int(a.to_int() + b.to_int(), a.p, m)


def padic_add_int(a: PadicDigits, k: int) -> PadicDigits:
    return padic_of_int(a.to_int() + k, a.p, a.precision)


def padic_neg(a: PadicDigits) -> PadicDigits:
    return padic_of_int(-a.to_int(), a.p, a.precision)


@dataclass(frozen=True)
class FpSeries:
    """Truncated power series over F_p; coeffs[i] is the t^i coefficient."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        require_prime(self.p)
        object.__setattr__(
            self, "coeffs", tuple(c % self.p for c in self.coeffs)
        )

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

    def value_at_one(self) -> int:
        return sum(self.coeffs) % self.p

    def degree(self) -> int:
        """Degree as a polynomial (top nonzero coefficient index), -1 if 0."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1


def fp_one(p: int, n: int) -> FpSeries:
    return FpSeries(p, (1,) + (0,) * n)


def _one_minus_tk_pow(p: int, n: int, k: int, e: int) -> FpSeries:
    """(1 - t^k)^e truncated at t^n, for e >= 0, from the binomials C(e, i)."""
    out = [0] * (n + 1)
    for i in range(min(e, n // k) + 1):
        out[k * i] = (-1) ** i * math.comb(e, i)
    return FpSeries(p, tuple(out))


def one_minus_t_pow(d: PadicDigits, n: int = DEFAULT_TRUNCATION) -> FpSeries:
    """Digit-product expansion of (1-t)^d truncated at t^N.

    Factor j contributes only for p^j <= N; the precision must satisfy
    p^M > N so that all contributing digits are known.
    """
    if n < 0:
        raise ValueError(f"truncation N = {n} must be >= 0")
    p = d.p
    if p**d.precision <= n:
        raise InsufficientPrecision(
            f"p^M = {p**d.precision} <= N = {n}: not enough digits"
        )
    out = fp_one(p, n)
    for j, dj in enumerate(d.digits):
        if p**j > n:
            break
        if dj:
            out = out * _one_minus_tk_pow(p, n, p**j, dj)
    return out


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

    One digit per p-adic level, read off the series: only the factor
    (1-t)^{e_0} reaches t^1, so the t^1 coefficient is -e_0.  Then
    s * (1-t)^{p-e_0} must be a series in t^p (using (1-t)^p = 1-t^p over
    F_p); divide out 1-t^p, compress, recurse.  This divisibility check is
    the certificate: any failure means the input is not a pure power.
    """
    p = s.p
    if not s.coeffs or s.coeffs[0] != 1:
        raise NotAPurePower("series must have constant term 1")
    cur = s
    digits: list[int] = []
    while cur.truncation >= 1:
        d0 = -cur.coeffs[1] % p
        w = (cur * _one_minus_tk_pow(p, cur.truncation, 1, p - d0)).coeffs
        if any(c for k, c in enumerate(w) if k % p):
            raise NotAPurePower(
                f"no digit yields divisibility at level {len(digits)}"
            )
        # divide by 1 - t^p, i.e. by 1 - s in compressed coordinates
        cur = FpSeries(p, tuple(itertools.accumulate(w[::p])))
        digits.append(d0)
    return PadicDigits(p, tuple(digits))


def dimplus_of_finite_sym(dmax: int, p: int | None = None) -> int:
    """p-adic dimension of an object whose top nonzero symmetric power is dmax.

    Returns -dmax.  When p is supplied and dmax >= 1, also certifies the
    companion fact that the symmetric algebra has total dimension 0 mod p
    by evaluating the digit product (1-t)^dmax at t = 1.
    """
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    if p is not None and dmax >= 1:
        series = one_minus_t_pow_int(dmax, p, dmax)
        if series.value_at_one() != 0:
            raise AssertionError(
                f"(1-t)^{dmax} at t=1 is {series.value_at_one()} mod {p}, expected 0"
            )
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
            return padic_add_int(d, k)
        return d + k

    return shift(dimplus_v, 1 - nlen), shift(dimplus_v_dual, 1)


def extension_series(hs_v: FpSeries, nlen: int) -> FpSeries:
    """Series-level form of the extension transform.

    HS_E = (1 + t + ... + t^{nlen-1}) * HS_V; since nlen is a power of p
    the prefactor equals (1-t)^{nlen-1}, so the digit-level shift by
    1 - nlen agrees.
    """
    p = hs_v.p
    if not is_p_power(nlen, p):
        raise NotPPower(f"nlen = {nlen} is not a power of p = {p}")
    n = hs_v.truncation
    pref = FpSeries(p, tuple(1 if i < nlen else 0 for i in range(n + 1)))
    return pref * hs_v


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
