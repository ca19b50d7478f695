"""Symmetric growth dimension estimation from exact length sequences.

A LengthProvider supplies the exact length of the n-th symmetric power of
some object; the estimator samples cumulative lengths at powers of two
and realizes the limsup as a tail fit.  The classification thresholds
are module constants, deliberately conservative: the estimator reports
diagnostics rather than silently assuming the limit exists.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

from .characters import Basis, decompose, weyl_char
from .errors import MissingHomDim, require_prime


# -- length engines -------------------------------------------------------

# per prime p, the lengths computed so far, seeded with ell(0) and ell(-1)
_LENGTHS: dict[int, dict[int, int]] = {}


def nabla_length_by_decomposition(p: int, m: int) -> int:
    """Independent route: total simple multiplicity of the Weyl character."""
    return decompose(weyl_char(m), Basis.SIMPLE, p).total_multiplicity()


def nabla_length(p: int, m: int) -> int:
    """Composition length of the dual Weyl module of highest weight m.

    One memoized recursion on the base-p digits serves every prime: with
    m = p*b + a and 0 <= a <= p-1, ell(m) = ell(b) when a = p-1 and
    ell(m) = ell(b) + ell(b-1) otherwise, from ell(0) = 1 and ell(-1) = 0.
    For a <= p-2, nabla(m) has a two-step filtration with pieces
    L(a) (x) nabla(b)^[1] and L(p-2-a) (x) nabla(b-1)^[1]; for a = p-1 it is
    St (x) nabla(b)^[1]; Steinberg's theorem keeps each twisted product of
    simples simple.  The test suite checks the recursion against
    ``nabla_length_by_decomposition``.
    """
    if m < 0:
        raise ValueError("highest weight must be non-negative")
    table = _LENGTHS.get(p)
    if table is None:
        require_prime(p)
        table = _LENGTHS[p] = {0: 1, -1: 0}
    return _nabla_length(table, p, m)


def _nabla_length(table: dict[int, int], p: int, m: int) -> int:
    val = table.get(m)
    if val is None:
        b, a = divmod(m, p)
        val = _nabla_length(table, p, b)
        if a != p - 1:
            val += _nabla_length(table, p, b - 1)
        table[m] = val
    return val


_PARTITIONS: list[int] = [1]


def partition_count(n: int) -> int:
    """Number of partitions of n via the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_PARTITIONS) <= n:
        m = len(_PARTITIONS)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * _PARTITIONS[m - g1]
            if g2 <= m:
                total += sign * _PARTITIONS[m - g2]
            k += 1
        _PARTITIONS.append(total)
    return _PARTITIONS[n]


# -- providers ------------------------------------------------------------


@dataclass
class LengthProvider:
    """Exact per-degree length function n -> ell(Sym^n X)."""

    name: str
    length: Callable[[int], int]
    hom_dim: int | None = None


def binomial_provider(m: int) -> LengthProvider:
    """Model of an m-dimensional tannakian object: ell(Sym^n) = C(n+m-1, m-1)."""
    return LengthProvider(
        name=f"binomial({m})",
        length=lambda n: math.comb(n + m - 1, m - 1),
        hom_dim=m,
    )


def partitions_provider() -> LengthProvider:
    """Model of the square of an interpolation generator: ell(Sym^n) = p(n)."""
    return LengthProvider(name="partitions", length=partition_count)


def sl2_sym_provider(p: int) -> LengthProvider:
    """Symmetric powers of the natural SL2 module: ell(Sym^n) = ell(nabla(n))."""
    require_prime(p)
    return LengthProvider(
        name=f"sl2_sym({p})",
        length=lambda n: nabla_length(p, n),
        hom_dim=0,
    )


def constant_provider() -> LengthProvider:
    """Model with ell(Sym^n) = 1 for all n (growth dimension one)."""
    return LengthProvider(name="constant", length=lambda n: 1, hom_dim=1)


def csv_provider(path: str, name: str | None = None) -> LengthProvider:
    """Load a provider from a CSV with header ``n,length``."""
    table: dict[int, int] = {}
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh, restval="")
        for column in ("n", "length"):
            if column not in (rows.fieldnames or ()):
                raise ValueError(f"CSV {path} has no {column!r} column")
        for row in rows:
            table[int(row["n"])] = int(row["length"])

    def length(n: int) -> int:
        if n not in table:
            raise ValueError(f"CSV provider has no row for n={n}")
        return table[n]

    return LengthProvider(name=name or f"csv({path})", length=length)


# -- estimator ------------------------------------------------------------


# Classification thresholds; these values separate the shipped providers.
TAIL_POINTS = 5
EXP_RATIO_TOL = 1e-3
RATIO_DECAY = 0.8
SLOPE_DRIFT = 0.05


@dataclass
class GrowthEstimate:
    samples: list[tuple[int, int, float]]  # (n, cumulative length, estimate)
    final: float
    classification: str  # "polynomial", "superpolynomial", "exponential"
    degree: float | None
    diagnostics: str = ""


def sgd_estimate(provider: LengthProvider, n_max: int) -> GrowthEstimate:
    """Estimate the symmetric growth dimension from cumulative lengths.

    Samples s_n = sum_{i<=n} ell(Sym^i) at n = 2^k up to n_max; the
    per-sample estimate is log(s_n)/log(n) and the final value is the
    intercept of a least-squares fit of the estimates against 1/log(n)
    over the tail (modelling log s_n = d log n + C).
    """
    if n_max < 16:
        raise ValueError("n_max must be >= 16")
    sample_ns = []
    n = 4
    while n <= n_max:
        sample_ns.append(n)
        n *= 2

    samples: list[tuple[int, int, float]] = []
    cumulative = 0
    last_lengths: dict[int, int] = {}
    idx = 0
    for i in range(sample_ns[-1] + 1):
        ell = provider.length(i)
        if ell < 0:
            raise ValueError("lengths must be non-negative")
        cumulative += ell
        if idx < len(sample_ns) and i == sample_ns[idx]:
            if not cumulative:
                raise ValueError("log of non-positive value")
            last_lengths[i] = ell
            samples.append((i, cumulative, math.log(cumulative) / math.log(i)))
            idx += 1

    tail = samples[-TAIL_POINTS:]
    xs = [1.0 / math.log(s[0]) for s in tail]
    ys = [s[2] for s in tail]
    k = len(xs)
    xbar = sum(xs) / k
    ybar = sum(ys) / k
    denom = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
    final = ybar - slope * xbar

    # per-degree growth ratio ell(Sym^n)^(1/n) at the last two samples
    def ratio(n: int) -> float:
        ell = last_lengths[n]
        return math.exp(math.log(ell) / n) if ell > 0 else 0.0

    r_last = ratio(samples[-1][0])
    r_prev = ratio(samples[-2][0])
    # residual misfit of the tail to the polynomial model d + C/log n
    misfit = max(abs(y - (slope * x + final)) for x, y in zip(xs, ys))

    if (
        r_last > 1.0 + EXP_RATIO_TOL
        and r_prev > 1.0
        and math.log(r_last) >= RATIO_DECAY * math.log(r_prev)
    ):
        # the growth ratio is bounded away from 1 and not decaying
        classification, degree = "exponential", None
    elif misfit > SLOPE_DRIFT:
        # estimates keep drifting away from any polynomial tail model
        classification, degree = "superpolynomial", None
    else:
        classification, degree = "polynomial", final

    diagnostics = (
        f"tail ratio {r_last:.6f} (prev {r_prev:.6f}), "
        f"tail model misfit {misfit:.4f}, tail fit intercept {final:.5f}"
    )
    return GrowthEstimate(
        samples=samples,
        final=final,
        classification=classification,
        degree=degree,
        diagnostics=diagnostics,
    )


@dataclass
class MnReport:
    """Comparison of the growth estimate against dim Hom(X, unit)."""

    estimate: GrowthEstimate
    hom_dim: int
    inequality_ok: bool
    equality_verdict: str  # "Holds", "StrictGap", "Inconclusive"


def mn_diagnostic(provider: LengthProvider, n_max: int) -> MnReport:
    """Check dim Hom(X,1) <= sgd(X) and test for equality within tolerance.

    Equality is the maximal-nilpotence diagnostic: categories where it
    holds for every object are exactly the maximally nilpotent ones.
    """
    if provider.hom_dim is None:
        raise MissingHomDim(f"provider {provider.name} has no hom_dim")
    est = sgd_estimate(provider, n_max)
    hd = provider.hom_dim
    inequality_ok = est.final >= hd - 0.05
    if abs(est.final - hd) <= 0.05:
        verdict = "Holds"
    elif est.final > hd + 0.05:
        verdict = "StrictGap"
    else:
        verdict = "Inconclusive"
    return MnReport(
        estimate=est, hom_dim=hd, inequality_ok=inequality_ok, equality_verdict=verdict
    )
