"""Seeded request lists for the benchmark workloads, and how to run one request.

A request is a tuple ``(kind, args)``.  ``generate(workload, seed)`` gives the
same list for the same seed.  Every request's inputs come from a fixed finite
domain for which ``refs/<workload>.json.gz`` stores the exact answer (or the
benchmark holds a closed-form oracle, see ``check.py``), so any seed can be
checked.

Library requests look verlab functions up through their modules at call
time, so the wrappers ``tracing.install`` puts on the modules are the ones
called.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("library", "cli-mix")

# -- library, part 2: the fusion table --------------------------------------

FUSION_PRIMES = (31, 47, 61)
# Every a at p=31 takes more than ten power iterations.  Passes stay short
# (many per run) by leaving out the slowest-converging a at the larger primes.
FPDIM_AS = {31: tuple(range(30)), 47: (23, 45), 61: (30, 59)}
GD_NMAX = 40
TILT_PRIMES = (3, 5, 7)
# Tilting products stay far below the growth and p-adic latencies that make
# the tail, so the seed's choice of pairs does not move the tail percentile.
TILT_MAX_WEIGHT = 120
TILT_POOL_SEED = 20230616  # fixed: the pool and its stored references never change
TILT_POOL_PER_P = 64
TILT_PER_PASS_PER_P = 16


def tilt_pool() -> list[tuple[int, int, int, int]]:
    """(p, a, b, n): T_a (x) T_b at p with a, b >= p, filtered at level p^n."""
    rng = random.Random(TILT_POOL_SEED)
    return [
        (p, rng.randint(p, TILT_MAX_WEIGHT), rng.randint(p, TILT_MAX_WEIGHT), rng.randint(1, 3))
        for p in TILT_PRIMES
        for _ in range(TILT_POOL_PER_P)
    ]


def _fusion_table(rng: random.Random) -> list:
    """The whole fusion table in a seeded order, then the derived quantities
    and the seeded tilting products, so fpdim always finds its row built."""
    table = [("fuse", (p, a, b)) for p in FUSION_PRIMES for a in range(p - 1) for b in range(p - 1)]
    rng.shuffle(table)
    derived = [("fpdim", (p, a)) for p, as_ in FPDIM_AS.items() for a in as_]
    derived += [("gd", (p, a, GD_NMAX)) for p in FUSION_PRIMES for a in (1, 2, p - 3)]
    pool = tilt_pool()
    for p in TILT_PRIMES:
        derived += [("tilt", t) for t in rng.sample([t for t in pool if t[0] == p], TILT_PER_PASS_PER_P)]
    rng.shuffle(derived)
    return table + derived


# -- library, part 1: the growth sweeps --------------------------------------

BINOMIAL_MS = tuple(range(1, 7))


def growth_sweeps() -> dict[tuple, list[int]]:
    """Every provider the workload can use, with its ascending nmax sweep.

    p in {3, 5, 7} takes the decomposition route, p = 2 the halving route.
    nmax stays far below the CLI default of 2^14 (82 s at p=3): 2^11 alone
    would take 0.8 s, half a pass, and leave fewer passes per run.
    """
    sweeps: dict[tuple, list[int]] = {}
    for p in (3, 5, 7):
        sweeps[("sl2_sym", p)] = [2**k for k in range(4, 11)]
    sweeps[("sl2_sym", 2)] = [2**k for k in range(4, 17)]
    sweeps[("partitions", 0)] = [2**k for k in range(4, 13)]
    sweeps[("constant", 0)] = [2**k for k in range(4, 13)]
    for m in BINOMIAL_MS:
        sweeps[("binomial", m)] = [2**k for k in range(4, 13)]
    return sweeps


def _growth_sweep(rng: random.Random) -> list:
    queues = [[("sgd", (name, param, nmax)) for nmax in ns] for (name, param), ns in growth_sweeps().items()]
    # The seed interleaves the providers but keeps each sweep ascending, so
    # the memo tables a request finds warm, and the work, do not depend on it.
    reqs = []
    while queues:
        q = rng.choice(queues)
        reqs.append(q.pop(0))
        if not q:
            queues.remove(q)
    return reqs


# -- library, part 3: the p-adic round trips --------------------------------

# (p, truncation N).  For each sign, every residue r mod p appears once, as
# x = r + p*y with y from an evenly spread list.  The exponents are fixed and
# the seed only orders the requests: the cost of a round trip depends
# strongly on the digit pattern of x (a dense series times a sparse one
# costs N per nonzero of the first), so seeded exponents would make the
# work of a pass depend on the seed.
PADIC_GRID = ((2, 2000), (3, 2000), (5, 700), (7, 700), (31, 50))


def _padic_series(rng: random.Random) -> list:
    reqs = [
        ("padic", (sign * (r + p * (r * (n // p) // p)), p, n))
        for p, n in PADIC_GRID
        for sign in (1, -1)
        for r in range(p)
    ]
    rng.shuffle(reqs)
    return reqs


# -- library ----------------------------------------------------------------


def _library(rng: random.Random) -> list:
    """One library session: the growth sweeps, the fusion table, then the
    p-adic round trips.  The sweeps come first: their requests do not depend
    on the seed, so the ``simple_char`` entries they leave warm do not
    either, whereas the tilting products the fusion table samples do."""
    return _growth_sweep(rng) + _fusion_table(rng) + _padic_series(rng)


# -- cli-mix ----------------------------------------------------------------

MISSING_CSV = "perfbench/out/no-such-lengths.csv"

# (id, argv, extra environment).  "startup" requests do no real compute.
CLI_STARTUP = (
    ("oddline-3-2", ("verpn", "oddline", "-p", "3", "-n", "2"), ()),
    ("oddline-5-3", ("verpn", "oddline", "-p", "5", "-n", "3"), ()),
    ("digits-3-2-4", ("verpn", "digits", "-p", "3", "-n", "2", "-i", "4"), ()),
    ("embed-5-2-7", ("verpn", "embed", "-p", "5", "-n", "2", "-i", "7"), ()),
    ("weyl-1", ("char", "weyl", "-m", "1"), ()),
)
CLI_VALID = (
    ("weyl-6", ("char", "weyl", "-m", "6"), ()),
    ("simple-2-6", ("char", "simple", "-p", "2", "-m", "6"), ()),
    ("simple-5-37", ("char", "simple", "-p", "5", "-m", "37"), ()),
    ("tilt-2-6", ("char", "tilt", "-p", "2", "-m", "6"), ()),
    ("tilt-3-20", ("char", "tilt", "-p", "3", "-m", "20"), ()),
    ("mul-3-2", ("char", "mul", "--a", '{"3": 1}', "--b", '{"2": 1}'), ()),
    ("decompose-simple", ("char", "decompose", "-p", "2", "--char", '{"6": 1, "4": 1, "2": 1, "0": 1}', "--basis", "simple"), ()),
    ("decompose-weyl", ("char", "decompose", "--char", '{"4": 1, "2": 2, "0": 2}', "--basis", "weyl"), ()),
    ("fuse-decompose-5-3-4", ("tilt", "fuse-decompose", "-p", "5", "-a", "3", "-b", "4"), ()),
    ("fuse-decompose-3-7-5", ("tilt", "fuse-decompose", "-p", "3", "-a", "7", "-b", "5"), ()),
    ("fuse-5-1-3", ("verp", "fuse", "-p", "5", "-a", "1", "-b", "3"), ()),
    ("fuse-7-2-4", ("verp", "fuse", "-p", "7", "-a", "2", "-b", "4"), ()),
    ("oracle-5-1-3-2", ("verp", "oracle", "-p", "5", "-a", "1", "-b", "3", "-c", "2"), ()),
    ("fpdim-7-1", ("verp", "fpdim", "-p", "7", "-a", "1"), ()),
    ("fpdim-5-2", ("verp", "fpdim", "-p", "5", "-a", "2"), ()),
    ("gd-7-1", ("verp", "gd", "-p", "7", "-a", "1", "--nmax", "12"), ()),
    ("product-3-2", ("verpn", "product", "-p", "3", "-n", "2", "--digits", "1,2"), ()),
    ("sympower-3-2-4-2", ("verpn", "sympower", "-p", "3", "-n", "2", "-i", "4", "-k", "2"), ()),
    ("sympower-5-1-1-4", ("verpn", "sympower", "-p", "5", "-n", "1", "-i", "1", "-k", "4"), ()),
    ("pow-2--6", ("padic", "pow", "-p", "2", "--exp", "-6"), ()),
    ("pow-3-5", ("padic", "pow", "-p", "3", "--exp", "5", "--prec", "30"), ()),
    ("pow-5--3-env", ("padic", "pow", "-p", "5", "--exp", "-3"), (("VERLAB_PREC", "40"),)),
    ("recover-2", ("padic", "recover", "-p", "2", "--series", "[1,1,1,1,1,1,1,1,1]"), ()),
    ("finite-2", ("padic", "finite", "--top", "2"), ()),
    ("finite-4-2", ("padic", "finite", "--top", "4", "-p", "2"), ()),
    ("extend-2-4", ("padic", "extend", "-p", "2", "--nlen", "4", "--dimv", "-2", "--dimvdual", "-2"), ()),
    ("palindrome-3", ("padic", "palindrome", "-p", "3", "--series", "[1,1,1]"), ()),
    ("sgd-binomial-3", ("sgd", "estimate", "--provider", "binomial", "--m", "3", "--nmax", "256"), ()),
    ("sgd-sl2-2", ("sgd", "estimate", "--provider", "sl2_sym", "-p", "2", "--nmax", "1024"), ()),
    ("sgd-partitions", ("sgd", "estimate", "--provider", "partitions", "--nmax", "256"), ()),
    ("sgd-constant", ("sgd", "estimate", "--provider", "constant", "--nmax", "64"), ()),
    ("diagnose-binomial-2", ("sgd", "diagnose", "--provider", "binomial", "--m", "2", "--nmax", "256"), ()),
)
# Documented errors: exit 1 with the error envelope.
CLI_DOMAIN = (
    ("fuse-out-of-range", ("verp", "fuse", "-p", "5", "-a", "9", "-b", "1"), ()),
    ("oddline-even", ("verpn", "oddline", "-p", "2", "-n", "1"), ()),
    ("extend-not-p-power", ("padic", "extend", "-p", "2", "--nlen", "3", "--dimv", "1", "--dimvdual", "1"), ()),
    ("recover-not-pure", ("padic", "recover", "-p", "3", "--series", "[1,1,0,0,1]"), ()),
    ("decompose-negative", ("char", "decompose", "--char", '{"1": -1}', "--basis", "weyl"), ()),
    ("palindrome-bad-top", ("padic", "palindrome", "-p", "5", "--series", "[1,1,2]"), ()),
)
# Documented usage errors: exit 2.
CLI_USAGE = (
    ("weyl-missing-m", ("char", "weyl"), ()),
    ("binomial-missing-m", ("sgd", "estimate", "--provider", "binomial", "--nmax", "16"), ()),
    ("unknown-provider", ("sgd", "estimate", "--provider", "bogus"), ()),
    ("fuse-bad-int", ("verp", "fuse", "-p", "x", "-a", "1", "-b", "1"), ()),
)
# Known defects (ROADMAP item 5) that fail fast.  The documented answer is
# exit 1 or 2 with no traceback; today they print a traceback or answer for
# a non-prime.  Inputs that hang (-p 1, `padic pow -p 0`) and unbounded
# sizes (`char tilt -m 10^20`) are left out: timing them measures a timeout.
CLI_DEFECTS = (
    ("mul-malformed-json", ("char", "mul", "--a", "{bad", "--b", "{}"), ()),
    ("decompose-malformed-json", ("char", "decompose", "--char", "notjson", "--basis", "weyl"), ()),
    ("recover-series-string", ("padic", "recover", "-p", "2", "--series", '"x"'), ()),
    ("palindrome-empty", ("padic", "palindrome", "-p", "3", "--series", "[]"), ()),
    ("csv-missing-file", ("sgd", "estimate", "--provider", "csv", "--csv", MISSING_CSV, "--nmax", "16"), ()),
    ("prec-not-int", ("padic", "pow", "-p", "2", "--exp", "3"), (("VERLAB_PREC", "abc"),)),
    ("simple-p4", ("char", "simple", "-p", "4", "-m", "5"), ()),
    ("fuse-p4", ("verp", "fuse", "-p", "4", "-a", "1", "-b", "1"), ()),
    ("simple-p0", ("char", "simple", "-p", "0", "-m", "3"), ()),
    ("tilt-p0", ("char", "tilt", "-p", "0", "-m", "3"), ()),
)
CLI_CLASSES = {
    "startup": CLI_STARTUP,
    "valid": CLI_VALID,
    "domain": CLI_DOMAIN,
    "usage": CLI_USAGE,
    "defect": CLI_DEFECTS,
}
# Copies of each request per pass: every variant runs, the start-up ones
# twice, so the work of a pass does not depend on the seed, which only
# orders them.  failed_frac at the seed commit is exactly 10/62.
CLI_REPEATS = {"startup": 2, "valid": 1, "domain": 1, "usage": 1, "defect": 1}
CLI_TIMEOUT_S = 30


def _cli_mix(rng: random.Random) -> list:
    reqs = [
        ("cli", (cls,) + variant)
        for cls, copies in CLI_REPEATS.items()
        for variant in CLI_CLASSES[cls]
        for _ in range(copies)
    ]
    rng.shuffle(reqs)
    return reqs


_GENERATORS = {
    "library": _library,
    "cli-mix": _cli_mix,
}


def generate(workload: str, seed: int) -> list:
    """The request list of one pass of ``workload`` for ``seed``."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def describe(req) -> str:
    kind, args = req
    if kind == "cli":
        return f"cli[{args[0]}] {args[1]}: verlab {' '.join(args[2])}"
    return f"{kind}{args}"


# -- execution --------------------------------------------------------------


def _provider(growth, name: str, param: int):
    if name == "sl2_sym":
        return growth.sl2_sym_provider(param)
    if name == "binomial":
        return growth.binomial_provider(param)
    if name == "partitions":
        return growth.partitions_provider()
    return growth.constant_provider()


def execute(req, trace_out=None):
    """Run one request and return its raw result.

    A CLI request given ``trace_out`` runs traced and writes its spans there.
    """
    from verlab import fusion, growth, padic, tilting

    kind, args = req
    if kind == "fuse":
        return fusion.fuse(*args)
    if kind == "fpdim":
        return fusion.fpdim(*args)
    if kind == "gd":
        p, a, n = args
        return fusion.gd_estimate(p, fusion.FusionElement.simple(p, a), n)
    if kind == "tilt":
        p, a, b, n = args
        dec = tilting.tensor_decompose_tilt(p, a, b)
        kept = {m: k for m, k in dec.terms.items() if not tilting.is_negligible(p, n, m)}
        return dec, kept
    if kind == "sgd":
        name, param, nmax = args
        return growth.sgd_estimate(_provider(growth, name, param), nmax)
    if kind == "padic":
        x, p, n = args
        series = padic.one_minus_t_pow_int(x, p, n)
        digits = padic.dimplus_from_series(series)
        extended = padic.extension_series(series, p)
        palin = padic.frobenius_palindromy_check(p, series.coeffs[: x + 1], x) if 0 <= x <= n else None
        return series, digits, extended, palin
    if kind == "cli":
        return run_cli(args, trace_out)
    raise ValueError(f"unknown request kind {kind!r}")


def verlab_env() -> dict[str, str]:
    """This process's environment with the repository's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli(args, trace_out=None):
    """One CLI process; returns (exit code, stdout, stderr)."""
    _cls, _id, argv, extra_env = args
    env = verlab_env()
    env.pop("VERLAB_PREC", None)
    env.update(extra_env)
    entry = ["-m", "verlab.cli"]
    if trace_out is not None:
        entry = [str(ROOT / "perfbench" / "traced_cli.py"), str(trace_out)]
    proc = subprocess.run(
        [sys.executable, *entry, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr
