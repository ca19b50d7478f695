"""Span tracing of verlab's layers from outside the program.

``install(tracer)`` wraps each layer's entry points.  A function is wrapped
under every name a verlab module binds it to (``fusion`` binds
``tensor_decompose_tilt`` itself, ``growth`` binds ``decompose``), so calls
between modules are seen too.  A span records its name, start, end, parent
span and request id; spans stay in memory until ``write``.  A layer's self
time is its span time minus the time of its child spans and minus the
tracer's own cost around those children (see ``Tracer.aggregate``).
"""
from __future__ import annotations

import bisect
import functools
import json
import statistics
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name).  tilting_char is not spanned: the
# decomposition peels call it for every summand, and its lru_cache
# statistics are what the metrics read.
SPANNED = (
    ("verlab.characters", "decompose", "characters.decompose"),
    ("verlab.characters", "simple_char", "characters.simple_char"),
    ("verlab.tilting", "tensor_decompose_tilt", "tilting.decompose"),
    ("verlab.fusion", "fuse", "fusion.fuse"),
    ("verlab.fusion", "fpdim", "fusion.fpdim"),
    ("verlab.fusion", "gd_estimate", "fusion.gd"),
    ("verlab.padic", "one_minus_t_pow", "padic.pow"),
    ("verlab.padic", "one_minus_t_pow_int", "padic.pow"),
    ("verlab.padic", "dimplus_from_series", "padic.recover"),
    ("verlab.padic", "extension_series", "padic.extend"),
    ("verlab.padic", "frobenius_palindromy_check", "padic.palindrome"),
    ("verlab.growth", "sgd_estimate", "growth.estimate"),
    ("verlab.growth", "mn_diagnostic", "growth.diagnose"),
) + tuple(
    ("verlab.verpn", name, "verpn")
    for name in (
        "max_index",
        "steinberg_digits",
        "steinberg_product",
        "embed",
        "odd_line",
        "is_invertible_simple",
        "sym_power_status",
    )
)
PROVIDERS = ("binomial_provider", "partitions_provider", "sl2_sym_provider", "constant_provider", "csv_provider")
CACHES = (
    ("verlab.characters", "simple_char", "characters.simple_char"),
    ("verlab.tilting", "tilting_char", "tilting.tilting_char"),
)
# About 3 ms per traced process, paid by every traced CLI child too.
CALIBRATION_CALLS = 500
CALIBRATION_TRIES = 5


class Tracer:
    """In-memory span store and counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outside = array("d")
        self.counts: Counter = Counter()
        self.current_request = -1
        self._stack: list[int] = []
        self.caches: dict[str, object] = {}
        self.inside_s = 0.0
        self.residual_s = 0.0

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``before(args)`` runs ahead of the call and its value goes to
        ``after(token, args, result)``, which runs once the span is closed.
        The span covers the call alone; the wrapper's bookkeeping and hooks
        around it are timed separately as ``outside``.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = time.perf_counter, self._stack
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, outside = self.start, self.end, self.outside

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            token = before(args) if before else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            stack.append(idx)
            starts.append(0.0)
            ends.append(0.0)
            outside.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after:
                after(token, args, result)
            outside[idx] = clock() - entered - (t1 - t0)
            return result

        return wrapper

    def calibrate(self) -> None:
        """Measure the wrapper's cost per call that no clock of its own sees.

        ``inside_s`` is the part within a span's own clock reads, on top of
        the call it wraps.  ``residual_s`` is the part before its first and
        after its last clock read.  A scratch tracer spans a no-op and
        times loops of ``CALIBRATION_CALLS`` wrapped and bare calls; each
        figure is the median of ``CALIBRATION_TRIES`` loops after a warm-up.
        """

        def noop():
            return None

        probe = Tracer()
        wrapped = probe.span("probe", noop)
        clock = time.perf_counter
        inside, residual = [], []
        calls = CALIBRATION_CALLS
        for _ in range(CALIBRATION_TRIES + 1):
            t = clock()
            for _ in range(calls):
                noop()
            bare = clock() - t
            t = clock()
            for _ in range(calls):
                wrapped()
            traced = clock() - t
            spanned = sum(probe.end) - sum(probe.start)
            inside.append((spanned - bare) / calls)
            residual.append((traced - spanned - sum(probe.outside)) / calls - inside[-1])
            del probe.name[:], probe.parent[:], probe.request[:], probe.start[:], probe.end[:], probe.outside[:]
        self.inside_s = max(statistics.median(inside[1:]), 0.0)
        self.residual_s = max(statistics.median(residual[1:]), 0.0)

    # -- results ----------------------------------------------------------

    def cache_stats(self) -> dict[str, dict]:
        out = {}
        for label, fn in self.caches.items():
            info = fn.cache_info()
            out[label] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return out

    def aggregate(self) -> dict:
        """Calls and self seconds per span name, counters and cache stats.

        A span's self time is its duration less ``inside_s`` and less, for
        each child span, the child's duration, its ``outside`` time and
        ``residual_s``: all the time the tracer added to the span.
        """
        n = len(self.start)
        child = [self.inside_s] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i] + self.outside[i] + self.residual_s
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "caches": self.cache_stats(),
            "spans": n,
            "inside_s": self.inside_s,
            "residual_s": self.residual_s,
        }

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
        }

    def write(self, path, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({**self.spans(), **(extra or {})}, fh)


def _rebind(old, new) -> None:
    """Replace ``old`` by ``new`` under every name any verlab module gives it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "verlab" or mod_name.startswith("verlab."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def _unfolded(c) -> int:
    coeffs = c._coeffs
    return 2 * len(coeffs) - (0 in coeffs)


def _nonzero_pairs(a, b) -> int:
    """Pairs (i, j) of nonzero coefficients with i + j within the truncation."""
    n = min(a.truncation, b.truncation)
    xs = [i for i, c in enumerate(a.coeffs[: n + 1]) if c]
    ys = [j for j, c in enumerate(b.coeffs[: n + 1]) if c]
    return sum(bisect.bisect_right(ys, n - i) for i in xs)


def install(tracer: Tracer) -> None:
    """Wrap verlab's layer entry points with spans and counters of ``tracer``."""
    import verlab  # noqa: F401  (loads every submodule)
    from verlab import characters, growth, padic

    tracer.calibrate()
    counts = tracer.counts
    for mod_name, attr, label in CACHES:
        tracer.caches[label] = getattr(sys.modules[mod_name], attr)

    def count_mul(args):
        counts["characters.mul_pairs"] += _unfolded(args[0]) * _unfolded(args[1])

    def count_series_mul(args):
        counts["padic.series_mul_pairs"] += _nonzero_pairs(args[0], args[1])

    characters.Character.__mul__ = tracer.span("characters.mul", characters.Character.__mul__, before=count_mul)
    padic.FpSeries.__mul__ = tracer.span("padic.series_mul", padic.FpSeries.__mul__, before=count_series_mul)

    def count_summands(_token, _args, result):
        counts["tilting.summands"] += len(result.terms)

    def summands_before(_args):
        return counts["tilting.summands"]

    def count_kept(before, _args, result):
        # only fuse calls that decomposed (cache misses) say how much was kept
        decomposed = counts["tilting.summands"] - before
        if decomposed:
            counts["fusion.decomposed"] += decomposed
            counts["fusion.kept"] += len(result.mults)

    hooks = {
        "tilting.decompose": {"after": count_summands},
        "fusion.fuse": {"before": summands_before, "after": count_kept},
    }
    for mod_name, attr, label in SPANNED:
        fn = getattr(sys.modules[mod_name], attr)
        _rebind(fn, tracer.span(label, fn, **hooks.get(label, {})))

    def wrap_provider(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            prov = factory(*args, **kwargs)
            prov.length = tracer.span("growth.length", prov.length)
            return prov

        return make

    for attr in PROVIDERS:
        fn = getattr(growth, attr)
        _rebind(fn, wrap_provider(fn))
