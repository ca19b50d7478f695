"""Acceptance suite: one test per criterion, printed pass/fail lines."""
import math
import random
import time

import pytest

from verlab import (
    FusionElement,
    PadicDigits,
    Sym,
    binomial_provider,
    clebsch_gordan_truncated,
    constant_provider,
    dimplus_from_series,
    dimplus_of_finite_sym,
    extension_transform,
    fuse,
    mn_diagnostic,
    odd_line,
    one_minus_t_pow,
    one_minus_t_pow_int,
    sgd_estimate,
    simple_char,
    sl2_sym_provider,
    sym_power_status,
    tensor_decompose_tilt,
    tilting_char,
    verlinde_oracle,
    weyl_char,
)
from verlab.characters import Basis, decompose
from verlab.padic import padic_of_int, recoverable_digits

from oracles import char_sub, fusion_product, is_zero, top_weight

PRIMES_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_ver8_extension():
    start = time.perf_counter()
    result = extension_transform(2, 4, -2, -2)
    elapsed = time.perf_counter() - start
    assert result == (-5, -1)
    assert elapsed < 1e-3
    report(1, f"extension transform gives (-5, -1) exactly in {elapsed * 1e6:.0f} us")


def test_criterion_2_dimplus_l1():
    start = time.perf_counter()
    cases = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)] + [
        (5, n) for n in range(1, 3)
    ]
    for p, n in cases:
        dmax = p**n - 2
        assert dimplus_of_finite_sym(dmax, p) == 2 - p**n
        if dmax >= 1:
            series = one_minus_t_pow_int(dmax, p, dmax)
            # degree dmax (top nonzero coefficient) and value 0 at t = 1
            assert max(i for i, c in enumerate(series.coeffs) if c) == dmax
            assert sum(series.coeffs) % p == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"Dim+ of the generator is 2 - p^n for {len(cases)} levels in {elapsed:.3f}s")


def test_criterion_3_sgd_char2():
    start = time.perf_counter()
    est = sgd_estimate(sl2_sym_provider(2), 2**16)
    elapsed = time.perf_counter() - start
    assert est.classification == "polynomial"
    assert abs(est.final - math.log2(3)) <= 0.05
    assert elapsed < 30.0
    report(3, f"char-2 sgd estimate {est.final:.5f} vs log2(3) = {math.log2(3):.5f} in {elapsed:.2f}s")


def test_criterion_4_fusion_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    triples = 0
    for p in PRIMES_31:
        for a in range(p - 1):
            for b in range(p - 1):
                mults = fuse(p, a, b).mults
                for c in range(p - 1):
                    triples += 1
                    expected = mults.get(c, 0)
                    if verlinde_oracle(p, a, b, c) != expected:
                        mismatches += 1
                    if clebsch_gordan_truncated(p, a, b, c) != expected:
                        mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    report(4, f"{triples} fusion triples match both oracles in {elapsed:.2f}s")


def test_criterion_5_negligible_ideal_certificate():
    start = time.perf_counter()
    violations = 0
    for p in (2, 3, 5):
        for n in (1, 2):
            gen = p**n - 1
            for k in range(3 * p**n + 1):
                dec = tensor_decompose_tilt(p, gen, k)
                violations += sum(1 for m in dec.terms if m < gen)
    for p in (2, 3, 5, 7):
        for m in range(p - 1, 201):
            if tilting_char(p, m).dimension() % p != 0:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 30.0
    report(5, f"ideal closure and dimension divisibility with zero violations in {elapsed:.2f}s")


def test_criterion_6_vanishing_kb_fidelity():
    start = time.perf_counter()
    checked = 0
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            for j in range(n):
                assert sym_power_status(p, n, p**j, p ** (n - j) - 1).status is Sym.ZERO
                checked += 1
            for m in range(1, p - 1):
                assert sym_power_status(p, n, p ** (n - 1) * m, p - m).status is Sym.ZERO
                checked += 1
            if n >= 2:
                base = odd_line(p, n)
                for j in range(n - 1):
                    for m in range(p):
                        assert (
                            sym_power_status(p, n, base + p**j * m, m + 2).status
                            is Sym.ZERO
                        )
                        checked += 1
    # level-9 facts
    assert sym_power_status(3, 2, 4, 2).status is Sym.IS_UNIT
    assert sym_power_status(3, 2, 4, 3).status is Sym.ZERO
    from verlab.verpn import _load_fact_file

    comments = _load_fact_file()["comments"]
    recorded = {(c.get("p"), c.get("n"), c.get("index"), c.get("power")) for c in comments}
    assert (3, 2, 1, 2) in recorded and (3, 2, 5, 2) in recorded
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(6, f"{checked} vanishing-rule instances plus level-9 facts in {elapsed:.3f}s")


def test_criterion_7_series_roundtrips():
    start = time.perf_counter()
    rng = random.Random(2024)
    for p in (2, 3, 5):
        m = recoverable_digits(p, 64)
        for _ in range(100):
            digits = tuple(rng.randrange(p) for _ in range(m))
            d = PadicDigits(p, digits)
            assert dimplus_from_series(one_minus_t_pow(d, 64)).digits == digits
        for _ in range(200):
            a = PadicDigits(p, tuple(rng.randrange(p) for _ in range(m)))
            b = PadicDigits(p, tuple(rng.randrange(p) for _ in range(m)))
            lhs = one_minus_t_pow(a, 64) * one_minus_t_pow(b, 64)
            ab = padic_of_int(a.to_int() + b.to_int(), p, m)
            assert lhs.coeffs == one_minus_t_pow(ab, 64).coeffs
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, f"300 roundtrips and 600 homomorphism pairs exact in {elapsed:.2f}s")


def test_criterion_8_property_suites():
    # growth inequality never violated for any shipped provider with hom_dim
    for prov in (binomial_provider(2), binomial_provider(5), sl2_sym_provider(2),
                 constant_provider()):
        rep = mn_diagnostic(prov, 2**13)
        assert rep.inequality_ok, prov.name
    # ring axioms on random simples
    rng = random.Random(99)
    for p in (5, 7, 11):
        simples = [FusionElement.simple(p, a) for a in range(p - 1)]
        for _ in range(100):
            x, y, z = (rng.choice(simples) for _ in range(3))
            xy = fusion_product(x, y)
            assert xy.mults == fusion_product(y, x).mults
            assert fusion_product(xy, z).mults == fusion_product(x, fusion_product(y, z)).mults
    # unitriangularity of both base changes
    for p in (2, 3, 5, 7):
        for m in range(120):
            for char in (simple_char(p, m), tilting_char(p, m)):
                diff = char_sub(char, weyl_char(m))
                assert is_zero(diff) or top_weight(diff) < m
    # exactness of decomposition
    for p in (2, 3):
        for m in range(60):
            dec = decompose(tilting_char(p, m), Basis.SIMPLE, p)
            assert dec.reconstruct() == tilting_char(p, m)
    report(8, "growth inequality, ring axioms, unitriangularity, exactness all green")
