import math
import random

import pytest

from verlab import (
    FusionElement,
    clebsch_gordan_truncated,
    fpdim,
    fuse,
    gd_estimate,
    simple_char,
    verlinde_oracle,
)
from verlab import fusion
from verlab.errors import IndexOutOfRange

from oracles import fusion_product, quantum_dimension

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


class TestFuse:
    def test_p5_l1_l3(self):
        assert fuse(5, 1, 3).mults == {2: 1}

    def test_p3_odd_line_squares_to_unit(self):
        assert fuse(3, 1, 1).mults == {0: 1}

    def test_p7_l2_l2(self):
        assert fuse(7, 2, 2).mults == {0: 1, 2: 1, 4: 1}

    def test_index_range(self):
        with pytest.raises(IndexOutOfRange):
            fuse(5, 4, 0)

    def test_parity_and_window(self):
        for p in SMALL_PRIMES:
            for a in range(p - 1):
                for b in range(p - 1):
                    for c, n in fuse(p, a, b).mults.items():
                        assert n >= 1
                        assert (c - a - b) % 2 == 0
                        assert abs(a - b) <= c <= min(a + b, 2 * (p - 2) - (a + b))


class TestSharedFuse:
    def test_same_object_per_triple(self):
        assert fuse(7, 2, 3) is fuse(7, 2, 3)

    def test_p_is_read_only(self):
        with pytest.raises(AttributeError):
            fuse(5, 1, 1).p = 7
        assert fuse(5, 1, 1).p == 5

    def test_editing_mults_copy_leaves_cache_intact(self):
        mults = fuse(7, 2, 2).mults
        mults[0] = 99
        del mults[4]
        assert fuse(7, 2, 2).mults == {0: 1, 2: 1, 4: 1}


class TestOracleEquivalence:
    def test_matches_verlinde_and_closed_form(self):
        for p in SMALL_PRIMES:
            for a in range(p - 1):
                for b in range(p - 1):
                    mults = fuse(p, a, b).mults
                    for c in range(p - 1):
                        expected = mults.get(c, 0)
                        assert verlinde_oracle(p, a, b, c) == expected
                        assert clebsch_gordan_truncated(p, a, b, c) == expected

    def test_unit_row(self):
        for p in (5, 7):
            for b in range(p - 1):
                for c in range(p - 1):
                    assert verlinde_oracle(p, 0, b, c) == (1 if b == c else 0)

    def test_known_values(self):
        assert verlinde_oracle(5, 1, 3, 2) == 1
        assert verlinde_oracle(5, 1, 3, 4) == 0


class TestFusionElement:
    @pytest.mark.parametrize("mults", [{-1: 1}, {4: 1}, {-1: 1, 2: 1}, {0: 1, 2: 1, 4: 0}])
    def test_index_range(self, mults):
        with pytest.raises(IndexOutOfRange):
            FusionElement(5, mults)

    def test_negative_multiplicity(self):
        with pytest.raises(ValueError):
            FusionElement(5, {0: 1, 2: -1})


class TestRingAxioms:
    def test_commutative_associative(self):
        rng = random.Random(23)
        for p in SMALL_PRIMES:
            simples = [FusionElement.simple(p, a) for a in range(p - 1)]
            cases = 500 if p > 3 else 50
            for _ in range(cases):
                x, y, z = (rng.choice(simples) for _ in range(3))
                xy = fusion_product(x, y)
                assert xy.mults == fusion_product(y, x).mults
                assert fusion_product(xy, z).mults == fusion_product(x, fusion_product(y, z)).mults

    def test_unit(self):
        for p in (3, 5, 7):
            one = FusionElement.simple(p, 0)
            for a in range(p - 1):
                x = FusionElement.simple(p, a)
                assert fusion_product(one, x).mults == x.mults

    def test_self_duality(self):
        for p in SMALL_PRIMES:
            for a in range(p - 1):
                for b in range(p - 1):
                    n0 = fuse(p, a, b).mults.get(0, 0)
                    assert n0 == (1 if a == b else 0)


class TestIteratedProductsOracle:
    @staticmethod
    def oracle_lengths(p, mults, n_max):
        """Lengths of x^n, x = sum of mults[a] L_a, from truncated-CG coefficients alone."""
        labels = range(p - 1)
        x = [mults.get(b, 0) for b in labels]
        power = x
        lengths = [sum(x)]
        for _ in range(n_max - 1):
            power = [
                sum(
                    power[b] * x[a] * clebsch_gordan_truncated(p, b, a, c)
                    for b in labels
                    for a in labels
                )
                for c in labels
            ]
            lengths.append(sum(power))
        return lengths

    @pytest.mark.parametrize("p", [5, 7, 31])
    def test_gd_lengths_match_clebsch_gordan(self, p):
        # the simples L_1, L_2, L_{p-3} and the non-simple L_1 + 2 L_3
        for x in [{a: 1} for a in sorted({1, 2, p - 3})] + [{1: 1, 3: 2}]:
            est = gd_estimate(p, FusionElement(p, x), 12)
            assert est.lengths == self.oracle_lengths(p, x, 12)

    def test_gd_zero_element_rejected(self):
        with pytest.raises(ValueError, match="log of non-positive value"):
            gd_estimate(5, FusionElement(5), 3)


class TestDimFp:
    """The categorical dimension of L_a in Ver_p is a + 1 mod p."""

    def test_examples(self):
        # for a <= p - 1, L_a is the Weyl module, of dimension a + 1
        for p, a, dim in ((5, 3, 4), (7, 0, 1), (3, 1, 2)):
            assert simple_char(p, a).dimension() % p == dim

    def test_ring_homomorphism(self):
        for p in SMALL_PRIMES:
            for a in range(p - 1):
                for b in range(p - 1):
                    lhs = sum(n * (c + 1) for c, n in fuse(p, a, b).mults.items()) % p
                    assert lhs == (a + 1) * (b + 1) % p


class TestFpdim:
    def test_golden_ratio(self):
        assert abs(fpdim(5, 1) - 2 * math.cos(math.pi / 5)) < 1e-8

    def test_unit(self):
        for p in (3, 5, 7):
            assert abs(fpdim(p, 0) - 1.0) < 1e-10

    def test_p3_odd_line(self):
        assert abs(fpdim(3, 1) - 1.0) < 1e-10

    def test_matches_quantum_dimension(self):
        for p in (5, 7, 11, 31, 47, 61):
            for a in range(p - 1):
                q = quantum_dimension(simple_char(p, a), p)
                assert abs(fpdim(p, a) - q) < 1e-8

    def test_multiplicative_on_basis(self):
        for p in (5, 7):
            for a in range(p - 1):
                for b in range(p - 1):
                    rhs = sum(
                        n * fpdim(p, c) for c, n in fuse(p, a, b).mults.items()
                    )
                    assert abs(fpdim(p, a) * fpdim(p, b) - rhs) < 1e-8

    @staticmethod
    def closed_form(p, a):
        return math.sin((a + 1) * math.pi / p) / math.sin(math.pi / p)

    def test_matches_closed_form(self):
        for p in (2, 3, 5, 7, 11, 13, 31, 47, 61):
            for a in range(p - 1):
                assert fpdim(p, a) == self.closed_form(p, a), (p, a)

    @pytest.mark.parametrize("a", [1, 63, 125])
    def test_certificate_holds_at_p127(self, a):
        assert fpdim(127, a) == self.closed_form(127, a)

    @pytest.mark.parametrize("p, a, b", [(5, 1, 0), (61, 30, 59)])
    def test_certificate_rejects_perturbed_row(self, monkeypatch, p, a, b):
        exact = fusion.fuse

        def perturbed(p_, a_, b_):
            row = exact(p_, a_, b_)
            if (p_, a_, b_) != (p, a, b):
                return row
            mults = row.mults
            mults[min(mults)] += 1
            return FusionElement(p_, mults)

        monkeypatch.setattr(fusion, "fuse", perturbed)
        with pytest.raises(AssertionError, match=f"L_{a} \\(x\\) L_{b}"):
            fpdim(p, a)


class TestGdEstimate:
    def test_p5_l1_converges_to_golden_ratio(self):
        est = gd_estimate(5, FusionElement.simple(5, 1), 40)
        assert abs(est.final - 1.618034) < 0.05

    def test_unit_constant(self):
        est = gd_estimate(5, FusionElement.simple(5, 0), 10)
        assert est.roots == [1.0] * 10

    def test_p3_odd_line(self):
        est = gd_estimate(3, FusionElement.simple(3, 1), 20)
        assert est.roots == [1.0] * 20

    def test_bounded_by_fpdim(self):
        for p in (5, 7):
            for a in range(p - 1):
                est = gd_estimate(p, FusionElement.simple(p, a), 25)
                top = fpdim(p, a)
                for r in est.roots:
                    assert 1.0 - 1e-12 <= r <= top + 1e-9
