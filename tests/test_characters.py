import random

import pytest

from verlab import (
    Basis,
    Character,
    decompose,
    simple_char,
    specialize,
    weyl_char,
)
from verlab.characters import base_p_digits
from verlab.errors import NegativeCoefficient


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
        assert specialize(weyl_char(2), "q=1") == 3

    def test_root_of_unity(self):
        import math

        val = specialize(weyl_char(1), "root_of_unity", 5)
        assert abs(val - 2 * math.cos(math.pi / 5)) < 1e-12

    def test_mod_p(self):
        assert specialize(weyl_char(4), "mod_p", 5) == 0


class TestLengthRecursion:
    def test_char2_weyl_length_recursion(self):
        lengths = {
            m: decompose(weyl_char(m), Basis.SIMPLE, 2).total_multiplicity()
            for m in range(0, 130)
        }
        for n in range(1, 64):
            assert lengths[2 * n] == lengths[n] + lengths[n - 1]
            assert lengths[2 * n + 1] == lengths[n]
