import pytest

from verlab import (
    Basis,
    decompose,
    is_negligible,
    tensor_decompose_tilt,
    tilting_char,
    weyl_char,
)

PRIMES = (2, 3, 5, 7)


class TestTiltingChar:
    def test_base_cases_below_p(self):
        for p in PRIMES:
            for m in range(p):
                assert tilting_char(p, m) == weyl_char(m)

    def test_p2_m2(self):
        c = tilting_char(2, 2)
        assert c == weyl_char(2) + weyl_char(0)
        assert c.dimension() == 4

    def test_p3_m3(self):
        c = tilting_char(3, 3)
        assert c == weyl_char(3) + weyl_char(1)
        assert c.dimension() == 6
        assert c.dimension() % 3 == 0

    def test_p2_m3_recursion(self):
        assert tilting_char(2, 3) == weyl_char(3)

    def test_unitriangular(self):
        for p in PRIMES:
            for m in range(201):
                diff = tilting_char(p, m) - weyl_char(m)
                assert diff.is_zero() or diff.top_weight() < m

    def test_dimension_divisibility(self):
        # characters in the level-p kernel have dimension divisible by p
        for p in PRIMES:
            for m in range(p - 1, 201):
                assert tilting_char(p, m).dimension() % p == 0

    def test_weyl_decomposition_nonnegative(self):
        for p in (2, 3, 5):
            for m in range(80):
                dec = decompose(tilting_char(p, m), Basis.WEYL)
                assert all(mult > 0 for mult in dec.terms.values())
                assert dec.reconstruct() == tilting_char(p, m)

    def test_prime_below_two_rejected(self):
        for p in (1, 0, -2):
            with pytest.raises(ValueError):
                tilting_char(p, 3)


class TestTensorDecompose:
    def test_p2_t1_t1(self):
        assert tensor_decompose_tilt(2, 1, 1).terms == {2: 1}

    def test_p3_t1_t1(self):
        assert tensor_decompose_tilt(3, 1, 1).terms == {2: 1, 0: 1}

    def test_unit(self):
        for p in (2, 3, 5):
            for m in range(10):
                assert tensor_decompose_tilt(p, 0, m).terms == {m: 1}

    def test_commutative_and_dimension(self):
        for p in (2, 3, 5):
            for a in range(8):
                for b in range(8):
                    dec = tensor_decompose_tilt(p, a, b)
                    assert dec.terms == tensor_decompose_tilt(p, b, a).terms
                    total = sum(
                        mult * tilting_char(p, m).dimension()
                        for m, mult in dec.terms.items()
                    )
                    assert total == (
                        tilting_char(p, a).dimension() * tilting_char(p, b).dimension()
                    )

    def test_reconstruction_exact(self):
        for p in (2, 3):
            for a in range(10):
                for b in range(10):
                    dec = tensor_decompose_tilt(p, a, b)
                    assert dec.reconstruct() == tilting_char(p, a) * tilting_char(p, b)


class TestNegligible:
    def test_examples(self):
        assert is_negligible(2, 1, 1) is True
        assert is_negligible(3, 1, 1) is False
        assert is_negligible(3, 2, 8) is True

    def test_threshold(self):
        for p in (2, 3, 5):
            for n in (1, 2):
                assert not is_negligible(p, n, p**n - 2)
                assert is_negligible(p, n, p**n - 1)

    def test_ideal_closure(self):
        # tensoring the generator T_{p^n-1} with anything stays in the ideal
        for p in (2, 3, 5):
            for n in (1, 2):
                gen = p**n - 1
                for k in range(3 * p**n + 1):
                    dec = tensor_decompose_tilt(p, gen, k)
                    assert all(m >= gen for m in dec.terms)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            is_negligible(2, 0, 1)
