import functools
import math
import random

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
from verlab import growth
from verlab.errors import MissingHomDim
from verlab.growth import nabla_cumulative, nabla_length_by_decomposition

from oracles import digit_matrices, nabla_length_pair, partitions_pentagonal_loop


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


def digit_recursion_oracle(p: int):
    """ell and S(n) = sum_{i<n} ell(i) from their defining recursions on n = p*q + r."""

    @functools.lru_cache(maxsize=None)
    def ell(m: int) -> int:
        if m <= 0:
            return m + 1  # ell(0) = 1, ell(-1) = 0
        q, r = divmod(m, p)
        return ell(q) + (ell(q - 1) if r != p - 1 else 0)

    @functools.lru_cache(maxsize=None)
    def prefix(n: int) -> int:
        if n <= 0:
            return 0  # S(0) = S(-1) = 0
        q, r = divmod(n, p)
        return p * prefix(q) + (p - 1) * prefix(q - 1) + r * (ell(q) + ell(q - 1))

    return ell, prefix


ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 31, 61)


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

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_digit_recursion_oracle_at_large_m(self, p):
        ell, _ = digit_recursion_oracle(p)
        rng = random.Random(p)
        for _ in range(200):
            m = rng.randrange(2**200)
            assert nabla_length(p, m) == ell(m), (p, m)

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


class TestNablaLengthMatrices:
    """ell against the exact 2x2 digit-matrix oracle, and its growth exponent."""

    PRIMES = (2, 3, 5, 7, 11, 13)

    @pytest.mark.parametrize("p", PRIMES)
    def test_every_small_m(self, p):
        lengths = [nabla_length(p, m) for m in range(3000)]
        for m in range(3000):
            assert nabla_length_pair(p, m) == (lengths[m], lengths[m - 1] if m else 0), (p, m)

    @pytest.mark.parametrize("p", PRIMES)
    def test_seeded_large_m(self, p):
        rng = random.Random(1000 + p)
        for _ in range(50):
            m = rng.randrange(1, 2**300)
            assert nabla_length_pair(p, m) == (nabla_length(p, m), nabla_length(p, m - 1)), (p, m)

    @pytest.mark.parametrize("p", PRIMES)
    def test_digit_sum_spectrum(self, p):
        # sum_r mu(r) = [[p, p-1], [p-1, p]]: eigenvectors (1, 1) and (1, -1)
        # with eigenvalues 2p - 1 and 1, so alpha = log_p(2p - 1)
        mus = digit_matrices(p)
        total = tuple(tuple(sum(mu[i][j] for mu in mus) for j in range(2)) for i in range(2))
        assert total == ((p, p - 1), (p - 1, p))
        for vec, eigenvalue in (((1, 1), 2 * p - 1), ((1, -1), 1)):
            image = tuple(row[0] * vec[0] + row[1] * vec[1] for row in total)
            assert image == (eigenvalue * vec[0], eigenvalue * vec[1])
        # summing v(p*b + r) = mu(r) v(b) over every r and b < p^(k-1) gives
        # sum_{m < p^k} v(m) = total^k (1, 0), so S(p^k) = ((2p-1)^k + 1) / 2
        for k in range(40):
            assert nabla_cumulative(p, p**k - 1) == ((2 * p - 1) ** k + 1) // 2, (p, k)


class TestPartitionCount:
    def test_small(self):
        assert partition_count(0) == 1
        assert partition_count(5) == 7
        assert partition_count(10) == 42

    def test_brute_force_oracle(self):
        for n in range(31):
            assert partition_count(n) == partitions_brute_force(n)

    def test_p_1000(self):
        assert partition_count(1000) == 24061467864032622473692149727991

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pentagonal_loop_in_shuffled_order(self, monkeypatch, seed):
        """From a fresh table, every n <= 5000 in a seeded order."""
        ref = partitions_pentagonal_loop(5000)
        monkeypatch.setattr(growth, "_PARTITIONS", [1])
        order = list(range(5001))
        random.Random(seed).shuffle(order)
        for n in order:
            assert partition_count(n) == ref[n], n

    def test_pentagonal_loop_one_entry_at_a_time(self, monkeypatch):
        # ascending n adds one entry per call, so every call starts on the
        # offsets of a different table length
        ref = partitions_pentagonal_loop(2000)
        monkeypatch.setattr(growth, "_PARTITIONS", [1])
        assert [partition_count(n) for n in range(2001)] == ref
        assert growth._PARTITIONS == ref

    def test_cumulative_from_a_fresh_table(self, monkeypatch):
        ref = running_sums(partitions_pentagonal_loop(3000).__getitem__, 3001)
        monkeypatch.setattr(growth, "_PARTITIONS", [1])
        prov = partitions_provider()
        for n in (3000, 0, 17, 1024, 2999):
            assert prov.cumulative(n) == ref[n], n


def running_sums(length, n_stop):
    """Oracle: [sum_{i<=n} length(i) for n < n_stop], one term at a time."""
    sums, total = [], 0
    for n in range(n_stop):
        total += length(n)
        sums.append(total)
    return sums


def shipped_providers(tmp_path):
    path = tmp_path / "lengths.csv"
    rows = ["n,length"] + [f"{n},{(n % 7) * n + 1}" for n in range(2**14 + 1)]
    path.write_text("\n".join(rows) + "\n")
    return [
        *(binomial_provider(m) for m in range(1, 7)),
        *(sl2_sym_provider(p) for p in (2, 3, 5, 7)),
        constant_provider(),
        partitions_provider(),
        csv_provider(str(path)),
    ]


class TestCumulative:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_sl2_sym_prefix_recursion(self, p):
        brute = running_sums(lambda n: nabla_length(p, n), 3000)
        prov = sl2_sym_provider(p)
        assert [prov.cumulative(n) for n in range(3000)] == brute
        assert [nabla_cumulative(p, n) for n in range(3000)] == brute

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    def test_prefix_recursion_oracle_at_large_n(self, p):
        ell, prefix = digit_recursion_oracle(p)
        rng = random.Random(p)
        for _ in range(200):
            n = rng.randrange(2**200)
            assert nabla_cumulative(p, n) == prefix(n) + ell(n), (p, n)

    def test_deep_inputs(self):
        # 1501 base-2 digits: deeper than the interpreter's recursion limit
        assert nabla_length(2, 2**1500) == 1501
        # sum_{i < 2^k} ell(i) = (3^k + 1) / 2 in characteristic 2
        assert nabla_cumulative(2, 2**1500 - 1) == (3**1500 + 1) // 2

    @pytest.mark.parametrize("m", range(1, 7))
    def test_binomial_hockey_stick(self, m):
        prov = binomial_provider(m)
        assert [prov.cumulative(n) for n in range(3000)] == running_sums(prov.length, 3000)

    def test_constant(self):
        prov = constant_provider()
        assert [prov.cumulative(n) for n in range(3000)] == running_sums(prov.length, 3000)

    def test_default_running_sum_matches_brute_force_in_any_order(self):
        prov = LengthProvider(name="squares", length=lambda n: n * n)
        brute = running_sums(prov.length, 200)
        for n in (0, 5, 5, 100, 3, 199, 150):
            assert prov.cumulative(n) == brute[n], n

    def test_negative_length_rejected(self):
        neg = LengthProvider(name="neg", length=lambda n: 1 if n < 10 else -1)
        with pytest.raises(ValueError, match="lengths must be non-negative"):
            sgd_estimate(neg, 16)

    def test_csv_missing_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("n,length\n" + "\n".join(f"{n},1" for n in range(11)) + "\n")
        with pytest.raises(ValueError, match="no row for n=11"):
            sgd_estimate(csv_provider(str(path)), 16)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            nabla_cumulative(2, -1)

    @pytest.mark.parametrize("m", [0, -1])
    def test_binomial_m_below_one_rejected(self, m):
        with pytest.raises(ValueError, match=f"m={m}"):
            binomial_provider(m)


class TestSgdEstimate:
    @pytest.mark.parametrize("n_max", [2**k for k in range(10, 15)])
    def test_matches_length_only_provider(self, tmp_path, n_max):
        """The running sum of ``length`` is the oracle for every cumulative."""
        for prov in shipped_providers(tmp_path):
            est = sgd_estimate(prov, n_max)
            ref = sgd_estimate(LengthProvider(name="ref", length=prov.length), n_max)
            assert est.samples == ref.samples, prov.name
            assert est.final == ref.final, prov.name
            assert est.classification == ref.classification, prov.name

    def test_sl2_char2_exact_at_huge_n_max(self):
        # samples at powers of p = 2 see no periodic factor, so the tail fit is exact
        est = sgd_estimate(sl2_sym_provider(2), 2**64)
        assert est.classification == "polynomial"
        assert abs(est.final - math.log2(3)) < 1e-12

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
