import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlab import (
    FpSeries,
    PadicDigits,
    dimplus_from_series,
    dimplus_of_finite_sym,
    extension_series,
    extension_transform,
    frobenius_palindromy_check,
    one_minus_t_pow,
    one_minus_t_pow_int,
    padic_of_int,
)
from verlab.errors import (
    BadTopDim,
    InsufficientPrecision,
    NotAPurePower,
    NotPPower,
)
from verlab.padic import padic_neg, recoverable_digits


def schoolbook_product(a: FpSeries, b: FpSeries) -> FpSeries:
    """Dense reference product: every pair of coefficients, zero or not."""
    n = min(a.truncation, b.truncation)
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return FpSeries(a.p, tuple(out))


class TestSeriesProduct:
    def test_matches_schoolbook(self):
        rng = random.Random(7)
        for p in (2, 3, 5, 31):
            for _ in range(60):
                na, nb = rng.randrange(0, 40), rng.randrange(0, 40)
                density = rng.choice((0.0, 0.1, 0.5, 1.0))
                a, b = (
                    FpSeries(p, tuple(
                        rng.randrange(p) if rng.random() < density else 0
                        for _ in range(n + 1)
                    ))
                    for n in (na, nb)
                )
                assert (a * b).coeffs == schoolbook_product(a, b).coeffs

    def test_one_minus_t_pow_matches_repeated_product(self):
        # (1-t)^d as the product of d_j factors 1 - t^{p^j} for every p^j <= N
        for p in (2, 3, 5, 7):
            for n in (0, 1, p, 3 * p + 1, 30, p**3 + 2):
                m = recoverable_digits(p, n)
                for x in range(-2 * p * p, 2 * p * p):
                    d = padic_of_int(x, p, m)
                    expected = FpSeries(p, (1,) + (0,) * n)
                    for j, dj in enumerate(d.digits):
                        if p**j > n:
                            break
                        factor = [0] * (n + 1)
                        factor[0], factor[p**j] = 1, p - 1
                        for _ in range(dj):
                            expected = expected * FpSeries(p, tuple(factor))
                    assert one_minus_t_pow(d, n) == expected, (p, n, x)


class TestPadicOfInt:
    def test_minus_one(self):
        assert padic_of_int(-1, 3, 4).digits == (2, 2, 2, 2)

    def test_six_binary(self):
        assert padic_of_int(6, 2, 5).digits == (0, 1, 1, 0, 0)

    def test_minus_six_complement(self):
        d = padic_of_int(-6, 2, 6)
        assert d.digits == (0, 1, 0, 1, 1, 1)
        assert (d.to_int() + 6) % 2**6 == 0

    def test_signed_roundtrip(self):
        for x in range(-30, 31):
            for p in (2, 3, 5):
                assert padic_of_int(x, p, 6).to_signed_int() == x

    def test_zero_precision_is_the_empty_prefix(self):
        for x in (-7, 0, 7):
            assert padic_of_int(x, 3, 0) == PadicDigits(3, ())
        with pytest.raises(ValueError, match="precision M must be >= 0"):
            padic_of_int(1, 3, -1)


class TestOneMinusTPow:
    def test_exponent_one(self):
        s = one_minus_t_pow_int(1, 3, 8)
        assert s.coeffs == (1, 2, 0, 0, 0, 0, 0, 0, 0)

    def test_exponent_minus_one_is_geometric(self):
        for p in (2, 3, 5):
            s = one_minus_t_pow_int(-1, p, 10)
            assert s.coeffs == (1,) * 11
            # multiplying back by (1-t) gives 1 to order N
            prod = s * one_minus_t_pow_int(1, p, 10)
            assert prod.coeffs == (1,) + (0,) * 10

    def test_freshmans_dream(self):
        for p in (2, 3, 5):
            for a in (0, 1, 2):
                s = one_minus_t_pow_int(p**a, p, 30)
                expected = [0] * 31
                expected[0] = 1
                expected[p**a] = p - 1
                assert s.coeffs == tuple(expected)

    def test_insufficient_precision(self):
        with pytest.raises(InsufficientPrecision):
            one_minus_t_pow(padic_of_int(1, 2, 3), 8)

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_truncation_rejected(self, n):
        with pytest.raises(ValueError):
            one_minus_t_pow_int(2, 3, n)
        with pytest.raises(ValueError):
            one_minus_t_pow(padic_of_int(2, 3, 4), n)

    def test_integer_exponent_matches_binomials(self):
        for p in (2, 3, 5):
            for d in (1, 2, 3, 7):
                s = one_minus_t_pow_int(d, p, 20)
                for i in range(21):
                    expected = ((-1) ** i * math.comb(d, i)) % p if i <= d else 0
                    assert s.coeffs[i] == expected


def recover_by_divisibility(s: FpSeries) -> PadicDigits:
    """Reference recovery, one p-adic level at a time.

    Read d_0 = -s_1; then s * (1-t)^{p-d_0} must be a series in t^p
    ((1-t)^p = 1-t^p over F_p); divide out 1-t^p, compress and recurse.
    Any failed divisibility means s is not a pure power.
    """
    p = s.p
    if not s.coeffs or s.coeffs[0] != 1:
        raise NotAPurePower("series must have constant term 1")
    cur = s
    digits: list[int] = []
    while cur.truncation >= 1:
        d0 = -cur.coeffs[1] % p
        factor = [(-1) ** i * math.comb(p - d0, i) for i in range(min(p - d0, cur.truncation) + 1)]
        factor += [0] * (cur.truncation + 1 - len(factor))
        w = (cur * FpSeries(p, tuple(factor))).coeffs
        if any(c for k, c in enumerate(w) if k % p):
            raise NotAPurePower(f"no digit yields divisibility at level {len(digits)}")
        # divide by 1 - t^p, i.e. by 1 - s in compressed coordinates
        cur = FpSeries(p, tuple(itertools.accumulate(w[::p])))
        digits.append(d0)
    return PadicDigits(p, tuple(digits))


def recovery_outcome(recover, s: FpSeries):
    try:
        return recover(s).digits
    except NotAPurePower:
        return NotAPurePower


class TestDimplusFromSeries:
    def test_one_minus_t(self):
        s = one_minus_t_pow_int(1, 2, 31)
        assert dimplus_from_series(s).to_signed_int() == 1

    def test_geometric_p2(self):
        s = FpSeries(2, (1,) * 32)
        e = dimplus_from_series(s)
        assert e.digits == (1, 1, 1, 1, 1)
        assert e.to_signed_int() == -1

    def test_minus_six_digits(self):
        s = one_minus_t_pow_int(-6, 2, 31)
        e = dimplus_from_series(s)
        assert e.digits == (0, 1, 0, 1, 1)
        assert e.to_signed_int() == -6

    def test_not_a_pure_power(self):
        with pytest.raises(NotAPurePower, match="level 0"):
            dimplus_from_series(FpSeries(3, (1, 1, 2, 0, 1, 0, 0, 0, 0, 0)))
        # 1 + t^3 passes level 0 (its digit is 0) and leaves 1 + s at level 1,
        # whose read digit 2 fails: (1 + s)(1 - s) = 1 - s^2
        with pytest.raises(NotAPurePower, match="level 1"):
            dimplus_from_series(FpSeries(3, (1, 0, 0, 1) + (0,) * 17))

    def test_roundtrip_against_padic_of_int(self):
        for p, n in ((2, 2000), (2, 20000), (3, 200), (7, 700), (31, 1000)):
            m = recoverable_digits(p, n)
            for x in (0, 1, -1, p - 1, p, -p, 2 * p + 1, -6, 977, -12345):
                series = one_minus_t_pow_int(x, p, n)
                assert dimplus_from_series(series) == padic_of_int(x, p, m), (p, n, x)

    def test_agrees_with_divisibility_on_random_series(self):
        rng = random.Random(17)
        for p in (2, 3, 5, 7, 31):
            for _ in range(150):
                n = rng.randrange(0, 3 * p + 40)
                s = FpSeries(p, (1,) + tuple(rng.randrange(p) for _ in range(n)))
                assert recovery_outcome(dimplus_from_series, s) == recovery_outcome(
                    recover_by_divisibility, s
                ), s

    def test_agrees_with_divisibility_on_one_changed_coefficient(self):
        # a changed coefficient can leave a pure power: 1 + t^2 = (1-t)^2 over F_2
        rng = random.Random(23)
        rejected = 0
        for p in (2, 3, 5, 7, 31):
            for _ in range(150):
                n = rng.randrange(1, 3 * p + 120)
                pure = one_minus_t_pow_int(rng.randrange(-10**6, 10**6), p, n)
                assert dimplus_from_series(pure) == recover_by_divisibility(pure)
                coeffs = list(pure.coeffs)
                coeffs[rng.randrange(1, n + 1)] += rng.randrange(1, p)
                s = FpSeries(p, tuple(coeffs))
                outcome = recovery_outcome(recover_by_divisibility, s)
                assert recovery_outcome(dimplus_from_series, s) == outcome, s
                rejected += outcome is NotAPurePower
        assert rejected > 600

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_roundtrip_random(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        m = recoverable_digits(p, 64)
        digits = tuple(
            data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(m)
        )
        d = PadicDigits(p, digits)
        assert dimplus_from_series(one_minus_t_pow(d, 64)).digits == digits

    def test_homomorphism_random(self):
        rng = random.Random(41)
        for p in (2, 3, 5):
            m = recoverable_digits(p, 64)
            for _ in range(200):
                a = PadicDigits(p, tuple(rng.randrange(p) for _ in range(m)))
                b = PadicDigits(p, tuple(rng.randrange(p) for _ in range(m)))
                lhs = one_minus_t_pow(a, 64) * one_minus_t_pow(b, 64)
                rhs = one_minus_t_pow(padic_of_int(a.to_int() + b.to_int(), p, m), 64)
                assert lhs.coeffs == rhs.coeffs


class TestFiniteSym:
    def test_ver9_l4(self):
        assert dimplus_of_finite_sym(2, 3) == -2

    def test_l1_general(self):
        for p, n in [(2, 2), (2, 3), (3, 2), (5, 2)]:
            assert dimplus_of_finite_sym(p**n - 2, p) == 2 - p**n

    def test_dmax_zero(self):
        assert dimplus_of_finite_sym(0) == 0


class TestExtensionTransform:
    def test_ver8_example(self):
        assert extension_transform(2, 4, -2, -2) == (-5, -1)

    def test_nlen_one(self):
        assert extension_transform(3, 1, -7, -4) == (-7, -3)

    def test_not_p_power(self):
        with pytest.raises(NotPPower):
            extension_transform(2, 3, -2, -2)
        with pytest.raises(NotPPower):
            extension_transform(3, 0, -2, -2)

    def test_padic_digit_inputs(self):
        dv = padic_of_int(-2, 2, 8)
        de, _ = extension_transform(2, 4, dv, dv)
        assert de.to_signed_int() == -5

    def test_series_level_agrees(self):
        # HS_E = (1 + ... + t^{nlen-1}) HS_V shifts the exponent by nlen-1
        for p in (2, 3, 5):
            for a in range(4):
                nlen = p**a
                if nlen > 32:
                    continue
                for dim_v in (-1, -2, -5):
                    hs_v = one_minus_t_pow_int(-dim_v, p, 60)
                    hs_e = extension_series(hs_v, nlen)
                    e = dimplus_from_series(hs_e)
                    expected, _ = extension_transform(p, nlen, dim_v, dim_v)
                    assert e.to_signed_int() == -expected


class TestPalindromy:
    def test_ver9_l4_series(self):
        # dim L_4 = 1 mod 3; Hilbert coefficients (1, 1, 1) = (1-t)^2 mod 3
        assert frobenius_palindromy_check(3, (1, 1, 1), 2) is True
        assert one_minus_t_pow_int(2, 3, 2).coeffs == (1, 1, 1)

    def test_trivial(self):
        assert frobenius_palindromy_check(5, (1,), 0) is True

    def test_symmetric(self):
        assert frobenius_palindromy_check(3, (1, 2, 1), 2) is True

    def test_bad_top(self):
        with pytest.raises(BadTopDim):
            frobenius_palindromy_check(5, (1, 1, 2), 2)

    def test_negative_top(self):
        # top coefficient -1: each coefficient pairs with minus its mirror
        assert frobenius_palindromy_check(3, (1, 0, 2), 2) is True

    def test_failure_case(self):
        assert frobenius_palindromy_check(5, (1, 3, 1), 2) is True
        assert frobenius_palindromy_check(5, (1, 3, 2, 1), 3) is False


class TestPrimeBelowTwo:
    def test_rejected(self):
        for p in (1, 0, -2):
            with pytest.raises(ValueError):
                recoverable_digits(p, 64)
            with pytest.raises(ValueError):
                one_minus_t_pow_int(3, p, 64)

    def test_series_rejected(self):
        for p in (1, 0, -2):
            with pytest.raises(ValueError):
                FpSeries(p, (1, 1))


class TestNeg:
    def test_neg_roundtrip(self):
        for p in (2, 3, 5):
            for x in range(-20, 21):
                d = padic_of_int(x, p, 6)
                assert padic_neg(d).to_signed_int() == -x

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_roundtrip_at_truncation_zero(self, p):
        # (1-t)^x truncated at t^0 is 1, and it fixes no digit of x
        for x in range(-12, 13):
            e = dimplus_from_series(one_minus_t_pow_int(x, p, 0))
            assert e == PadicDigits(p, ())
            assert padic_neg(e) == PadicDigits(p, ())


class TestValueSemantics:
    """Series and digit prefixes are values: equal ones hash alike."""

    def test_series(self):
        a, b = FpSeries(3, (4, 1)), FpSeries(3, (1, 1))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != FpSeries(5, (4, 1)) and a != FpSeries(3, (1, 1, 0))
        assert a != (3, (1, 1))

    def test_digits(self):
        a, b = PadicDigits(3, (1, 2)), padic_of_int(7, 3, 2)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PadicDigits(5, (1, 2)) and a != PadicDigits(3, (1, 2, 0))
        assert a != (3, (1, 2))
