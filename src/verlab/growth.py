"""Symmetric growth dimension estimation from exact length sequences.

A LengthProvider supplies the exact length of the n-th symmetric power of
some object and the exact sum of those lengths up to n; the estimator
samples that cumulative sum at powers of two and realizes the limsup as a
tail fit.  The classification thresholds are module constants,
deliberately conservative: the estimator reports diagnostics rather than
silently assuming the limit exists.
"""
from __future__ import annotations

import csv
import math
from typing import Callable, NamedTuple

from .characters import Basis, base_p_digits, decompose, weyl_char
from .errors import MissingHomDim, require_prime


# -- length engines -------------------------------------------------------


def nabla_length_by_decomposition(p: int, m: int) -> int:
    """Independent route: total simple multiplicity of the Weyl character."""
    return decompose(weyl_char(m), Basis.SIMPLE, p).total_multiplicity()


def nabla_length(p: int, m: int) -> int:
    """Composition length of the dual Weyl module of highest weight m.

    A recursion on the base-p digits serves every prime: with
    m = p*b + a and 0 <= a <= p-1, ell(m) = ell(b) when a = p-1 and
    ell(m) = ell(b) + ell(b-1) otherwise, from ell(0) = 1 and ell(-1) = 0.
    For a <= p-2, nabla(m) has a two-step filtration with pieces
    L(a) (x) nabla(b)^[1] and L(p-2-a) (x) nabla(b-1)^[1]; for a = p-1 it is
    St (x) nabla(b)^[1]; Steinberg's theorem keeps each twisted product of
    simples simple.  ``_digit_walk`` runs the recursion from the top digit
    down; the test suite checks it against ``nabla_length_by_decomposition``.
    """
    if m < 0:
        raise ValueError("highest weight must be non-negative")
    return _digit_walk(p, m)[0]


def nabla_cumulative(p: int, n: int) -> int:
    """Sum of ``nabla_length(p, i)`` over 0 <= i <= n.

    With S(n) = sum_{i<n} ell(i), summing the digit recursion of
    ``nabla_length`` over whole blocks of p weights gives
    S(pq + r) = p*S(q) + (p-1)*S(q-1) + r*(ell(q) + ell(q-1)) for
    0 <= r <= p-1, from S(0) = S(-1) = 0.  The sum is S(n) + ell(n), both
    read off one ``_digit_walk`` in O(log n) steps.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    ell, s = _digit_walk(p, n)
    return s + ell


def _digit_walk(p: int, n: int) -> tuple[int, int]:
    """(ell(n), S(n)) from one pass over the base-p digits of n, top first.

    The state at q is ell(q), ell(q-1), S(q), S(q-1); appending the digit r
    moves it to pq + r by the recursions of ``nabla_length`` and
    ``nabla_cumulative``.  The weight before pq + r is pq + r - 1, whose
    last digit is r - 1 when r >= 1 and p - 1 (over q - 1) when r = 0.
    """
    ell, prev, s, s_prev = 1, 0, 0, 0
    for r in reversed(base_p_digits(n, p)):
        s = p * s + (p - 1) * s_prev + r * (ell + prev)
        ell, prev = (ell + prev if r != p - 1 else ell), (ell + prev if r else prev)
        s_prev = s - prev
    return ell, s


_PARTITIONS: list[int] = [1]


def partition_count(n: int) -> int:
    """Number of partitions of n via Euler's pentagonal-number recurrence.

    p(m) = sum_{k>=1} (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)).
    The generalized pentagonal numbers g are kept as offsets -g, split by
    the sign of their terms: while the table holds p(0), ..., p(m-1),
    ``table[-g]`` is p(m - g), so p(m) is one bulk sum per sign over the
    offsets with g <= m.  Those change only as m passes a pentagonal number.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _PARTITIONS
    get = table.__getitem__
    plus: list[int] = []
    minus: list[int] = []
    k = 0
    while len(table) <= n:
        k += 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            for _ in range(len(table), min(g, n + 1)):
                table.append(sum(map(get, plus)) - sum(map(get, minus)))
            (plus if k % 2 else minus).append(-g)
    return table[n]


# -- providers ------------------------------------------------------------


class LengthProvider:
    """Exact per-degree lengths n -> ell(Sym^n X) and their prefix sums.

    ``cumulative(n)`` is sum_{i<=n} ell(i).  A provider with a closed form
    passes it; the default method is a running sum of ``length`` from 0
    that rejects a negative length.
    """

    def __init__(
        self,
        name: str,
        length: Callable[[int], int],
        hom_dim: int | None = None,
        cumulative: Callable[[int], int] | None = None,
    ):
        self.name = name
        self.length = length
        self.hom_dim = hom_dim
        if cumulative is not None:
            self.cumulative = cumulative  # shadows the method

    def cumulative(self, n: int) -> int:
        total = 0
        for i in range(n + 1):
            ell = self.length(i)
            if ell < 0:
                raise ValueError("lengths must be non-negative")
            total += ell
        return total


def binomial_provider(m: int) -> LengthProvider:
    """Model of an m-dimensional tannakian object: ell(Sym^n) = C(n+m-1, m-1)."""
    if m < 1:
        raise ValueError(f"binomial provider needs m >= 1, got m={m}")
    return LengthProvider(
        name=f"binomial({m})",
        length=lambda n: math.comb(n + m - 1, m - 1),
        hom_dim=m,
        cumulative=lambda n: math.comb(n + m, m),
    )


def partitions_provider() -> LengthProvider:
    """Model of the square of an interpolation generator: ell(Sym^n) = p(n)."""

    def cumulative(n: int) -> int:
        partition_count(n)  # fills the table through n
        return sum(_PARTITIONS[: n + 1])

    return LengthProvider(name="partitions", length=partition_count, cumulative=cumulative)


def sl2_sym_provider(p: int) -> LengthProvider:
    """Symmetric powers of the natural SL2 module: ell(Sym^n) = ell(nabla(n))."""
    require_prime(p)
    return LengthProvider(
        name=f"sl2_sym({p})",
        length=lambda n: nabla_length(p, n),
        hom_dim=0,
        cumulative=lambda n: nabla_cumulative(p, n),
    )


def constant_provider() -> LengthProvider:
    """Model with ell(Sym^n) = 1 for all n (growth dimension one)."""
    return LengthProvider(
        name="constant", length=lambda n: 1, hom_dim=1, cumulative=lambda n: n + 1
    )


def csv_provider(path: str) -> LengthProvider:
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

    return LengthProvider(name=f"csv({path})", length=length)


# -- estimator ------------------------------------------------------------


# Classification thresholds; these values separate the shipped providers.
TAIL_POINTS = 5
EXP_RATIO_TOL = 1e-3
RATIO_DECAY = 0.8
SLOPE_DRIFT = 0.05


class GrowthEstimate(NamedTuple):
    samples: list[tuple[int, int, float]]  # (n, cumulative length, estimate)
    final: float
    classification: str  # "polynomial", "superpolynomial", "exponential"
    degree: float | None
    diagnostics: str


def sgd_estimate(provider: LengthProvider, n_max: int) -> GrowthEstimate:
    """Estimate the symmetric growth dimension from cumulative lengths.

    Samples s_n = sum_{i<=n} ell(Sym^i) = ``provider.cumulative(n)`` at
    n = 2^k up to n_max; the per-sample estimate is log(s_n)/log(n) and the
    final value is the intercept of a least-squares fit of the estimates
    against 1/log(n) over the tail (modelling log s_n = d log n + C).  The
    provider is asked for s_n and ell(n) only at the samples, so a closed
    form costs O(log n_max) and a running sum O(n_max).
    """
    if n_max < 16:
        raise ValueError("n_max must be >= 16")
    samples: list[tuple[int, int, float]] = []
    n = 4
    while n <= n_max:
        total = provider.cumulative(n)
        if total <= 0:
            raise ValueError("log of non-positive value")
        samples.append((n, total, math.log(total) / math.log(n)))
        n *= 2

    tail = samples[-TAIL_POINTS:]
    xs = [1.0 / math.log(s[0]) for s in tail]
    ys = [s[2] for s in tail]
    k = len(xs)
    xbar = sum(xs) / k
    ybar = sum(ys) / k
    denom = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
    final = ybar - slope * xbar

    # per-degree growth ratio ell(Sym^n)^(1/n) at the last two samples; 1 / n
    # divides ints, so n past the float range does not overflow
    def ratio(n: int) -> float:
        ell = provider.length(n)
        return math.exp(math.log(ell) * (1 / n)) if ell > 0 else 0.0

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


class MnReport(NamedTuple):
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
