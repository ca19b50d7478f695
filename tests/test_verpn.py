import pytest

from verlab import (
    Sym,
    embed,
    max_index,
    odd_line,
    steinberg_digits,
    steinberg_product,
    sym_power_status,
)
from verlab.errors import DigitOutOfRange, EvenPrime, IndexOutOfRange
from verlab.verpn import FACTS, UNIT_SUMMAND_FACTS, _load_fact_file

COMMENTS = _load_fact_file()["comments"]


class TestMaxIndex:
    def test_examples(self):
        assert max_index(3, 2) == 5
        assert max_index(2, 1) == 0
        assert max_index(5, 1) == 3

    def test_simple_validation(self):
        with pytest.raises(IndexOutOfRange):
            steinberg_digits(3, 2, 6)


class TestDigits:
    def test_ver9_l5(self):
        assert steinberg_digits(3, 2, 5) == (1, 2)

    def test_zero(self):
        assert steinberg_digits(5, 3, 0) == (0, 0, 0)

    def test_base2(self):
        assert steinberg_digits(2, 3, 3) == (0, 1, 1)

    def test_leading_digit_bound(self):
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for i in range(max_index(p, n) + 1):
                    assert steinberg_digits(p, n, i)[0] <= p - 2


class TestProduct:
    def test_ver9_l5(self):
        assert steinberg_product(3, 2, (1, 2)) == 5

    def test_zeros(self):
        assert steinberg_product(5, 3, (0, 0, 0)) == 0

    def test_base2(self):
        assert steinberg_product(2, 2, (0, 1)) == 1

    def test_roundtrip_exhaustive(self):
        for p in (2, 3, 5, 7):
            for n in (1, 2, 3, 4):
                for i in range(max_index(p, n) + 1):
                    d = steinberg_digits(p, n, i)
                    assert steinberg_product(p, n, d) == i

    def test_bad_digits(self):
        with pytest.raises(DigitOutOfRange):
            steinberg_product(3, 2, (2, 0))  # leading digit must be <= p-2
        with pytest.raises(DigitOutOfRange):
            steinberg_product(3, 2, (0, 3))

    def test_level_checked_before_digits(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                steinberg_product(3, n, ())


class TestEmbed:
    def test_examples(self):
        assert embed(3, 1, 1) == 3
        assert embed(3, 1, 0) == 0
        assert embed(3, 2, 2) == 6

    def test_appends_zero_digit(self):
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                for i in range(max_index(p, n) + 1):
                    j = embed(p, n, i)
                    assert j <= max_index(p, n + 1)
                    d = steinberg_digits(p, n, i)
                    assert steinberg_digits(p, n + 1, j) == d + (0,)


class TestOddLine:
    def test_examples(self):
        assert odd_line(3, 2) == 3
        assert odd_line(5, 1) == 3
        assert odd_line(7, 2) == 35

    def test_even_prime(self):
        with pytest.raises(EvenPrime):
            odd_line(2, 1)

    def test_digit_shape(self):
        for p in (3, 5, 7):
            for n in (1, 2, 3):
                d = steinberg_digits(p, n, odd_line(p, n))
                assert d == (p - 2,) + (0,) * (n - 1)


class TestSymPowerStatus:
    def test_prime_power_rule(self):
        st = sym_power_status(3, 2, 1, 8)
        assert st.status is Sym.ZERO

    def test_ver9_facts(self):
        assert sym_power_status(3, 2, 4, 3).status is Sym.ZERO
        st = sym_power_status(3, 2, 4, 2)
        assert st.status is Sym.IS_UNIT
        assert st.has_unit_summand  # unit appears as a summand too

    def test_unknown(self):
        assert sym_power_status(5, 2, 7, 4).status is Sym.UNKNOWN

    def test_sym0_is_unit(self):
        assert sym_power_status(5, 2, 7, 0).status is Sym.IS_UNIT

    def test_unit_object(self):
        for k in range(5):
            assert sym_power_status(3, 2, 0, k).status is Sym.IS_UNIT

    def test_vanishing_grid(self):
        # the three vanishing formulas on an exhaustive grid
        for p in (3, 5, 7):
            for n in (1, 2, 3):
                for j in range(n):
                    st = sym_power_status(p, n, p**j, p ** (n - j) - 1)
                    assert st.status is Sym.ZERO, (p, n, j)
                for m in range(1, p - 1):
                    st = sym_power_status(p, n, p ** (n - 1) * m, p - m)
                    assert st.status is Sym.ZERO, (p, n, m)
                if n >= 2:
                    base = odd_line(p, n)
                    for j in range(n - 1):
                        for m in range(p):
                            idx = base + p**j * m
                            st = sym_power_status(p, n, idx, m + 2)
                            assert st.status is Sym.ZERO, (p, n, j, m)

    def test_upward_closure(self):
        for p, n, i, k in [(3, 2, 1, 8), (3, 2, 3, 2), (3, 2, 4, 3), (5, 1, 1, 4)]:
            assert sym_power_status(p, n, i, k).status is Sym.ZERO
            for k2 in range(k, k + 6):
                assert sym_power_status(p, n, i, k2).status is Sym.ZERO

    def test_every_is_unit_fact_is_zero_one_power_up(self):
        for f in FACTS:
            if f["status"] == "IsUnit":
                above = sym_power_status(f["p"], f["n"], f["index"], f["power"] + 1)
                assert above.status is Sym.ZERO

    def test_unit_summand_facts_are_flags_not_statuses(self):
        for f in UNIT_SUMMAND_FACTS:
            st = sym_power_status(f["p"], f["n"], f["index"], f["power"])
            assert st.has_unit_summand

    def test_fact_file_comments(self):
        # squares of L_1 and L_5 at level 9 are recorded as comments only
        recorded = {
            (c.get("p"), c.get("n"), c.get("index"), c.get("power"))
            for c in COMMENTS
        }
        assert (3, 2, 1, 2) in recorded
        assert (3, 2, 5, 2) in recorded
        for c in COMMENTS:
            assert "comment" in c and "status" not in c

    def test_every_fact_has_provenance(self):
        for f in FACTS + UNIT_SUMMAND_FACTS:
            assert f["provenance"]
