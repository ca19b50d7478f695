import functools
import random

import pytest

from verlab import (
    Basis,
    Character,
    decompose,
    is_negligible,
    tensor_decompose_tilt,
    tilting_char,
    weyl_char,
)
from verlab.characters import base_p_digits
from verlab.tilting import weyl_factors

from oracles import char_sub, is_zero, top_weight

PRIMES = (2, 3, 5, 7)
# (p, m_limit): the formula is checked against Donkin for every m < m_limit.
ORACLE_RANGES = ((2, 800), (3, 800), (5, 800), (7, 1500), (11, 1500))


@functools.lru_cache(maxsize=None)
def donkin_tilting_char(p: int, m: int) -> Character:
    """Oracle: Donkin's tensor-product recursion for T_m.

    T_m is chi_m for m <= p-1 and chi_m + chi_{2p-2-m} for p <= m <= 2p-2.
    For m >= 2p-1, write m = m0 + p*m1 with the unique m0 in [p-1, 2p-2];
    then T_m = T_{m0} (x) T_{m1}^{[1]}, the second factor Frobenius-twisted.
    """
    if m <= p - 1:
        return weyl_char(m)
    if m <= 2 * p - 2:
        return weyl_char(m) + weyl_char(2 * p - 2 - m)
    m0 = (p - 1) + (m - (p - 1)) % p
    m1 = (m - m0) // p
    twist = Character({w * p: c for w, c in donkin_tilting_char(p, m1).coeffs.items()})
    return donkin_tilting_char(p, m0) * twist


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
                diff = char_sub(tilting_char(p, m), weyl_char(m))
                assert is_zero(diff) or top_weight(diff) < m

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

    @pytest.mark.parametrize("p, limit", ORACLE_RANGES)
    def test_matches_donkin_recursion(self, p, limit):
        for m in range(limit):
            assert tilting_char(p, m) == donkin_tilting_char(p, m), (p, m)

    @pytest.mark.parametrize("p", PRIMES)
    def test_large_m_dimension_and_shape(self, p):
        rng = random.Random(p)
        for m in [rng.randrange(10**6) for _ in range(3)]:
            *low, top = base_p_digits(m + 1, p)
            k = sum(1 for d in low if d)
            c = tilting_char(p, m)
            tilting_char.cache_clear()  # at most one large character alive
            assert c.dimension() == 2**k * top * p ** len(low), (p, m)
            coeffs = c.coeffs
            # weight m once, then every weight of m's parity down to 0 or 1,
            # each at least as often as the weight above it
            assert sorted(coeffs) == list(range(m % 2, m + 1, 2)), (p, m)
            assert coeffs[m] == 1
            mults = [coeffs[w] for w in range(m, -1, -2)]
            assert mults == sorted(mults), (p, m)

    def test_prime_checked_before_weight(self):
        with pytest.raises(ValueError, match="not prime"):
            tilting_char(4, -1)
        with pytest.raises(ValueError, match="non-negative"):
            tilting_char(3, -1)


class TestWeylFactors:
    @pytest.mark.parametrize("p, limit", ORACLE_RANGES)
    def test_shape_count_and_dimension(self, p, limit):
        for m in range(limit):
            factors = weyl_factors(p, m)
            assert factors == sorted(set(factors)), (p, m)
            assert factors[-1] == m
            k = sum(1 for d in base_p_digits(m + 1, p)[:-1] if d)
            assert len(factors) == 2**k, (p, m)
            assert sum(f + 1 for f in factors) == tilting_char(p, m).dimension()

    def test_examples(self):
        assert weyl_factors(3, 0) == [0]
        assert weyl_factors(3, 3) == [1, 3]  # m+1 = [1, 1]: 3 +- 1
        assert weyl_factors(3, 5) == [5]  # m+1 = [2, 0]: no sign at the zero digit
        assert weyl_factors(2, 6) == [0, 2, 4, 6]  # m+1 = [1, 1, 1]: 4 +- 2 +- 1


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

    @pytest.mark.parametrize("p", PRIMES)
    def test_each_level_generated_by_any_member(self, p):
        """Generation certificate: for p^n - 1 <= m < p^(n+1) - 1, some
        T_m (x) T_k with k <= m has T_{p^n-1} as a summand, so T_m generates
        the whole level-p^n ideal.  With the closure test, every T_m
        generates exactly the ideal of its level."""
        for m in range(p - 1, 100):
            n = len(base_p_digits(m + 1, p)) - 1
            gen = p**n - 1
            assert any(
                tensor_decompose_tilt(p, m, k).terms.get(gen, 0) > 0
                for k in range(m + 1)
            ), (p, m)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            is_negligible(2, 0, 1)
