import math

import pytest

from verlab import (
    LengthProvider,
    binomial_provider,
    constant_provider,
    csv_provider,
    mn_diagnostic,
    nabla_length,
    partition_count,
    partitions_provider,
    sgd_estimate,
    sl2_sym_provider,
)
from verlab.errors import MissingHomDim
from verlab.growth import nabla_length_by_decomposition


def partitions_brute_force(n: int, max_part: int | None = None) -> int:
    """Enumeration oracle: count partitions with parts <= max_part."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(
        partitions_brute_force(n - k, k) for k in range(1, min(max_part, n) + 1)
    )


class TestNablaLength:
    def test_examples(self):
        assert nabla_length(2, 4) == 3
        assert nabla_length(2, 3) == 1
        for p in (2, 3, 5):
            assert nabla_length(p, 0) == 1

    def test_char2_recursion_exhaustive(self):
        values = [nabla_length(2, m) for m in range(2 * 4096 + 2)]
        for n in range(1, 4097):
            assert values[2 * n] == values[n] + values[n - 1]
            assert values[2 * n + 1] == values[n]

    def test_recursion_agrees_with_decomposition(self):
        for p in (2, 3, 5, 7, 11, 13):
            for m in range(400):
                assert nabla_length(p, m) == nabla_length_by_decomposition(p, m), (p, m)

    def test_prime_below_two_rejected(self):
        for p in (1, 0, -3):
            with pytest.raises(ValueError):
                nabla_length(p, 5)

    def test_odd_characteristic(self):
        # single-digit weights are simple, so length 1
        for p in (3, 5):
            for m in range(p):
                assert nabla_length(p, m) == 1
        # chi_p = L_p + L_{p-2}
        for p in (3, 5):
            assert nabla_length(p, p) == 2


class TestPartitionCount:
    def test_small(self):
        assert partition_count(0) == 1
        assert partition_count(5) == 7
        assert partition_count(10) == 42

    def test_brute_force_oracle(self):
        for n in range(31):
            assert partition_count(n) == partitions_brute_force(n)


class TestSgdEstimate:
    def test_binomial_degrees(self):
        for m in range(1, 7):
            est = sgd_estimate(binomial_provider(m), 2**14)
            assert est.classification == "polynomial"
            assert abs(est.final - m) < 0.05, (m, est.final)

    def test_sl2_char2(self):
        est = sgd_estimate(sl2_sym_provider(2), 2**16)
        assert est.classification == "polynomial"
        assert abs(est.final - math.log2(3)) < 0.05

    def test_partitions_superpolynomial(self):
        est = sgd_estimate(partitions_provider(), 2**14)
        assert est.classification == "superpolynomial"

    def test_constant(self):
        est = sgd_estimate(constant_provider(), 2**14)
        assert est.classification == "polynomial"
        assert abs(est.final - 1.0) < 0.05

    def test_samples_monotone(self):
        est = sgd_estimate(sl2_sym_provider(2), 2**10)
        ns = [s[0] for s in est.samples]
        sums = [s[1] for s in est.samples]
        assert ns == sorted(ns)
        assert sums == sorted(sums)
        assert all(e >= 0 for _, _, e in est.samples)

    def test_n_max_too_small(self):
        with pytest.raises(ValueError):
            sgd_estimate(constant_provider(), 8)

    def test_zero_cumulative_rejected(self):
        zero = LengthProvider(name="zero", length=lambda n: 0)
        with pytest.raises(ValueError, match="log of non-positive value"):
            sgd_estimate(zero, 16)

    def test_huge_lengths_give_finite_samples(self):
        huge = LengthProvider(name="huge", length=lambda n: 10**400 + n)
        est = sgd_estimate(huge, 64)
        assert all(math.isfinite(e) for _, _, e in est.samples)
        assert math.isfinite(est.final)


class TestMnDiagnostic:
    def test_binomial_equality(self):
        rep = mn_diagnostic(binomial_provider(3), 2**14)
        assert rep.inequality_ok
        assert rep.equality_verdict == "Holds"

    def test_sl2_strict_gap(self):
        rep = mn_diagnostic(sl2_sym_provider(2), 2**14)
        assert rep.inequality_ok
        assert rep.equality_verdict == "StrictGap"

    def test_constant_equality(self):
        rep = mn_diagnostic(constant_provider(), 2**14)
        assert rep.inequality_ok
        assert rep.equality_verdict == "Holds"

    def test_missing_hom_dim(self):
        with pytest.raises(MissingHomDim):
            mn_diagnostic(partitions_provider(), 2**14)

    def test_inequality_never_violated(self):
        providers = [
            binomial_provider(1),
            binomial_provider(4),
            sl2_sym_provider(2),
            constant_provider(),
        ]
        for prov in providers:
            rep = mn_diagnostic(prov, 2**13)
            assert rep.inequality_ok, prov.name


class TestCsvProvider:
    def test_load_and_estimate(self, tmp_path):
        path = tmp_path / "lengths.csv"
        rows = ["n,length"] + [f"{n},{math.comb(n + 1, 1)}" for n in range(2**10 + 1)]
        path.write_text("\n".join(rows) + "\n")
        prov = csv_provider(str(path))
        est = sgd_estimate(prov, 2**10)
        assert est.classification == "polynomial"
        assert abs(est.final - 2.0) < 0.1
