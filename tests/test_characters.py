import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import verlab
from verlab import (
    Basis,
    Character,
    decompose,
    simple_char,
    weyl_char,
)
from verlab.characters import base_p_digits
from verlab.errors import NegativeCoefficient
from verlab.padic import is_p_power, padic_of_int, recoverable_digits

SRC_DIR = str(Path(verlab.__file__).resolve().parents[1])


def laurent_mul_oracle(a: Character, b: Character) -> Character:
    """Brute-force convolution on full signed weight multisets."""

    def unfold(c):
        full = {}
        for w, k in c.coeffs.items():
            full[w] = k
            if w > 0:
                full[-w] = k
        return full

    prod = {}
    for w1, c1 in unfold(a).items():
        for w2, c2 in unfold(b).items():
            prod[w1 + w2] = prod.get(w1 + w2, 0) + c1 * c2
    return Character({w: c for w, c in prod.items() if w >= 0})


def random_module_char(rng, max_w=8, max_c=3):
    parity = rng.randint(0, 1)
    return Character(
        {w: rng.randint(0, max_c) for w in range(parity, max_w, 2)}
    )


class TestWeylChar:
    def test_unit(self):
        assert weyl_char(0) == Character({0: 1})

    def test_m2(self):
        c = weyl_char(2)
        assert c.coeffs == {2: 1, 0: 1}
        assert c.dimension() == 3

    def test_m3(self):
        assert weyl_char(3).coeffs == {3: 1, 1: 1}

    def test_dimension(self):
        for m in range(20):
            assert weyl_char(m).dimension() == m + 1


class TestMul:
    def test_chi1_squared(self):
        prod = weyl_char(1) * weyl_char(1)
        assert prod == laurent_mul_oracle(weyl_char(1), weyl_char(1))
        assert prod.coeffs == {2: 1, 0: 2}
        assert decompose(prod, Basis.WEYL).terms == {2: 1, 0: 1}

    def test_unit_law(self):
        for m in range(8):
            assert weyl_char(0) * weyl_char(m) == weyl_char(m)

    def test_chi1_chi2(self):
        assert weyl_char(1) * weyl_char(2) == weyl_char(1) + weyl_char(3)

    def test_against_oracle_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = random_module_char(rng)
            b = random_module_char(rng)
            assert a * b == laurent_mul_oracle(a, b)

    def test_dim_multiplicative(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_module_char(rng)
            b = random_module_char(rng)
            assert (a * b).dimension() == a.dimension() * b.dimension()

    def test_commutative_associative(self):
        rng = random.Random(13)
        for _ in range(1000):
            a = random_module_char(rng, max_w=6)
            b = random_module_char(rng, max_w=6)
            c = random_module_char(rng, max_w=6)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestFrobeniusTwist:
    def test_chi1_p2(self):
        assert weyl_char(1).frobenius_twist(2).coeffs == {2: 1}

    def test_constant(self):
        one = Character({0: 1})
        for p in (2, 3, 5):
            assert one.frobenius_twist(p) == one

    def test_chi2_p3(self):
        assert weyl_char(2).frobenius_twist(3).coeffs == {6: 1, 0: 1}

    def test_dimension_preserved(self):
        rng = random.Random(3)
        for _ in range(50):
            c = random_module_char(rng)
            assert c.frobenius_twist(3).dimension() == c.dimension()


class TestSimpleChar:
    def test_p2_m2(self):
        c = simple_char(2, 2)
        assert c.coeffs == {2: 1}
        assert c.dimension() == 2

    def test_single_digit(self):
        for p in (2, 3, 5, 7):
            for m in range(p):
                assert simple_char(p, m) == weyl_char(m)

    def test_p2_m3_steinberg(self):
        assert simple_char(2, 3) == weyl_char(3)

    def test_prime_below_two_rejected(self):
        for p in (1, 0, -2):
            with pytest.raises(ValueError):
                base_p_digits(5, p)
            with pytest.raises(ValueError):
                simple_char(p, 5)


class TestDecompose:
    def test_chi1_squared_weyl(self):
        dec = decompose(weyl_char(1) * weyl_char(1), Basis.WEYL)
        assert dec.terms == {0: 1, 2: 1}

    def test_chi2_simple_p2(self):
        dec = decompose(weyl_char(2), Basis.SIMPLE, 2)
        assert dec.terms == {2: 1, 0: 1}
        assert dec.total_multiplicity() == 2

    def test_chi4_simple_p2(self):
        dec = decompose(weyl_char(4), Basis.SIMPLE, 2)
        assert dec.terms == {4: 1, 2: 1, 0: 1}
        assert dec.total_multiplicity() == 3

    def test_exact_reconstruction(self):
        rng = random.Random(5)
        for _ in range(100):
            parity = rng.randint(0, 1)
            c = Character()
            for w in range(parity, 10, 2):
                c = c + weyl_char(w).scale(rng.randint(0, 3))
            if c.is_zero():
                continue
            for basis, p in [(Basis.WEYL, None), (Basis.SIMPLE, 2), (Basis.SIMPLE, 3)]:
                dec = decompose(c, basis, p)
                assert dec.reconstruct() == c

    def test_simple_reconstruction_of_weyl(self):
        for p in (2, 3, 5):
            for m in range(40):
                dec = decompose(weyl_char(m), Basis.SIMPLE, p)
                assert dec.reconstruct() == weyl_char(m)

    def test_negative_coefficient_raises(self):
        bad = weyl_char(2) - weyl_char(0).scale(3)
        with pytest.raises(NegativeCoefficient):
            decompose(bad, Basis.WEYL)


class TestUnitriangularity:
    def test_simple_basis(self):
        for p in (2, 3, 5, 7):
            for m in range(60):
                diff = simple_char(p, m) - weyl_char(m)
                assert diff.is_zero() or diff.top_weight() < m


class TestSpecialize:
    def test_q1(self):
        assert weyl_char(2).dimension() == 3

    def test_root_of_unity(self):
        import math

        val = weyl_char(1).quantum_dimension(5)
        assert abs(val - 2 * math.cos(math.pi / 5)) < 1e-12

    def test_mod_p(self):
        assert weyl_char(4).dimension() % 5 == 0


DIGIT_PRIMES = (2, 3, 5, 7)


class TestBasePDigits:
    """``base_p_digits`` and its users against oracles written out here."""

    @pytest.mark.parametrize("p", DIGIT_PRIMES)
    def test_digits_reconstruct_and_pad(self, p):
        for m in range(3000):
            ndigits, x = 1, m
            while x >= p:
                x //= p
                ndigits += 1
            for width in range(1, 7):
                digits = base_p_digits(m, p, width)
                assert sum(d * p**j for j, d in enumerate(digits)) == m
                assert len(digits) == max(width, ndigits), (m, p, width)
                assert all(0 <= d < p for d in digits)

    def test_recoverable_digits_least_m(self):
        for p in DIGIT_PRIMES:
            for n in range(-5, 3000):
                m = 1
                while p**m <= n:
                    m += 1
                assert recoverable_digits(p, n) == m, (p, n)

    def test_is_p_power_against_division(self):
        for p in DIGIT_PRIMES:
            for x in range(-5, 3000):
                y = x
                while y >= 1 and y % p == 0:
                    y //= p
                assert is_p_power(x, p) == (y == 1), (p, x)

    def test_padic_of_int_round_trip(self):
        for p in DIGIT_PRIMES:
            for x in range(-3000, 3000, 7):
                for m in range(1, 7):
                    assert padic_of_int(x, p, m).to_int() == x % p**m, (p, x, m)

    def test_negative_raises_without_hanging(self):
        code = "from verlab.characters import base_p_digits; base_p_digits(-1, 3)"
        res = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC_DIR}, timeout=10,
        )
        assert res.returncode == 1
        assert "ValueError: m = -1 has no base-p digits" in res.stderr


class TestLengthRecursion:
    def test_char2_weyl_length_recursion(self):
        lengths = {
            m: decompose(weyl_char(m), Basis.SIMPLE, 2).total_multiplicity()
            for m in range(0, 130)
        }
        for n in range(1, 64):
            assert lengths[2 * n] == lengths[n] + lengths[n - 1]
            assert lengths[2 * n + 1] == lengths[n]
