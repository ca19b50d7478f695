import time

import pytest

from verlab.characters import base_p_digits
from verlab.errors import PRIME_LIMIT, require_prime
from verlab.fusion import FusionElement, gd_estimate
from verlab.growth import nabla_length, sl2_sym_provider
from verlab.padic import (
    FpSeries,
    PadicDigits,
    dimplus_of_finite_sym,
    frobenius_palindromy_check,
    is_p_power,
    padic_of_int,
    recoverable_digits,
)
from verlab.tilting import is_negligible, tilting_char, weyl_factors
from verlab.verpn import max_index, odd_line


def is_prime_by_trial(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestRequirePrime:
    def test_agrees_with_trial_division(self):
        for n in range(-5, 5000):
            if is_prime_by_trial(n):
                assert require_prime(n) == n
            else:
                with pytest.raises(ValueError):
                    require_prime(n)

    @pytest.mark.parametrize("n", [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # to every prime base up to 23
        318665857834031151167461,  # to every prime base up to 37
    ])
    def test_rejects_strong_pseudoprimes(self, n):
        with pytest.raises(ValueError, match="not prime"):
            require_prime(n)

    def test_accepts_large_primes(self):
        for n in (2**61 - 1, 3317044064679887385961813):
            assert require_prime(n) == n

    def test_rejects_beyond_limit_in_bounded_time(self):
        start = time.perf_counter()
        for n in (PRIME_LIMIT, 10**30, 2**521 - 1):
            with pytest.raises(ValueError, match="too large"):
                require_prime(n)
        assert time.perf_counter() - start < 1.0


# Every library entry point that takes p, called with arguments that are
# otherwise valid.
GUARDED = {
    "characters.base_p_digits": lambda p: base_p_digits(5, p),
    "growth.nabla_length": lambda p: nabla_length(p, 5),
    "growth.sl2_sym_provider": sl2_sym_provider,
    "padic.FpSeries": lambda p: FpSeries(p, (1, 1)),
    "padic.PadicDigits": lambda p: PadicDigits(p, (1,)),
    "padic.PadicDigits.empty": lambda p: PadicDigits(p, ()),
    "padic.padic_of_int": lambda p: padic_of_int(5, p, 3),
    "padic.recoverable_digits": lambda p: recoverable_digits(p, 8),
    "padic.is_p_power": lambda p: is_p_power(16, p),
    "padic.frobenius_palindromy_check": lambda p: frobenius_palindromy_check(p, [1], 0),
    "padic.dimplus_of_finite_sym": lambda p: dimplus_of_finite_sym(0, p),
    "tilting.tilting_char": lambda p: tilting_char(p, 3),
    "tilting.weyl_factors": lambda p: weyl_factors(p, 3),
    "tilting.is_negligible": lambda p: is_negligible(p, 1, 3),
    "verpn.max_index": lambda p: max_index(p, 1),
    "verpn.odd_line": lambda p: odd_line(p, 2),
    "fusion.FusionElement": lambda p: FusionElement.simple(p, 1),
    "fusion.FusionElement.zero": lambda p: FusionElement(p, {}),
    "fusion.gd_estimate": lambda p: gd_estimate(p, FusionElement.simple(5, 1), 3),
}


@pytest.mark.parametrize("p", [4, 9, 15, 0])
@pytest.mark.parametrize("name", GUARDED)
def test_library_rejects_non_prime(name, p):
    with pytest.raises(ValueError):
        GUARDED[name](p)
