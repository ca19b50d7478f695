"""verlab benchmark: one seeded workload, timed, exact-checked, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run is a sequence of passes; each pass is
a fresh interpreter (``worker.py``) that imports verlab from ``src``,
generates the workload's requests from the seed and sends them one at a
time, so caches start cold as they do for every CLI user.

With ``--trace 0`` every pass is untraced and passes repeat until S
seconds have passed; every pass after the first stops sending requests at
that moment, so the last one covers a prefix of the requests and a run
measures for S seconds whatever the length of a pass.  Every pass sends
the same requests in the same order, so request i finds the same cache
state in each; the run reports the sum (wall time), median and tail of the
requests' fastest latencies over the passes, the fastest set-up and the
median peak RSS of the whole passes: the end-to-end metrics.

With ``--trace 1`` untraced and traced passes alternate, whole, until the
next one would end after S seconds, since the per-layer counts are per
pass; the run asserts that both kinds give the same answers and reports
the per-layer metrics of the traced passes.

The first pass checks every answer against the stored references
(``check.py``); every later pass must give identical answers.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Requests that are known defects (ROADMAP item 5, cli-mix only) are counted
in ``failed_frac`` but not in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TAIL_ABOVE = 10  # the tail percentile is the highest with this many requests above it
WORKER_TIMEOUT_S = 150
SHOW_FAILURES = 20

class BenchError(Exception):
    """The run cannot produce a result."""


def run_pass(workload: str, seed: int, trace: bool, check: bool, deadline: float = math.inf) -> dict:
    env = workloads.verlab_env()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "--trace", str(int(trace)), "--check", str(int(check))]
    cmd += ["--deadline", repr(deadline)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"pass of {workload} did not finish in {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    report = json.loads(out)
    report["setup_s"] = report["ready"] - spawned
    report["trace_pass"] = trace
    report["pass_s"] = time.perf_counter() - spawned
    return report


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile): the highest percentile with TAIL_ABOVE requests above it."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_ABOVE - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def layer_metrics(agg: dict) -> dict:
    calls, self_s, counts, caches = agg["calls"], agg["self_s"], agg["counts"], agg["caches"]

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(label):
        st = caches[label]
        return ratio(st["hits"], st["hits"] + st["misses"])

    return {
        "characters.mul_calls": calls.get("characters.mul", 0),
        "characters.mul_pairs": counts.get("characters.mul_pairs", 0),
        "characters.mul_self_s": self_s.get("characters.mul", 0.0),
        "characters.decompose_calls": calls.get("characters.decompose", 0),
        "characters.decompose_self_s": self_s.get("characters.decompose", 0.0),
        "characters.simple_char_hit_ratio": hit_ratio("characters.simple_char"),
        "characters.simple_char_cache_size": caches["characters.simple_char"]["size"],
        "tilting.tilting_char_hit_ratio": hit_ratio("tilting.tilting_char"),
        "tilting.tilting_char_cache_size": caches["tilting.tilting_char"]["size"],
        "tilting.decompose_calls": calls.get("tilting.decompose", 0),
        "tilting.decompose_self_s": self_s.get("tilting.decompose", 0.0),
        "tilting.summands": counts.get("tilting.summands", 0),
        "fusion.fuse_calls": calls.get("fusion.fuse", 0),
        "fusion.fuse_self_s": self_s.get("fusion.fuse", 0.0),
        "fusion.kept_ratio": ratio(counts.get("fusion.kept", 0), counts.get("fusion.decomposed", 0)),
        "fusion.fpdim_self_s": self_s.get("fusion.fpdim", 0.0),
        "fusion.gd_self_s": self_s.get("fusion.gd", 0.0),
        "verpn.calls": calls.get("verpn", 0),
        "verpn.self_s": self_s.get("verpn", 0.0),
        "padic.series_mul_calls": calls.get("padic.series_mul", 0),
        "padic.series_mul_pairs": counts.get("padic.series_mul_pairs", 0),
        "padic.series_mul_self_s": self_s.get("padic.series_mul", 0.0),
        "padic.pow_self_s": self_s.get("padic.pow", 0.0),
        "padic.recover_self_s": self_s.get("padic.recover", 0.0),
        "growth.length_calls": calls.get("growth.length", 0),
        "growth.length_self_s": self_s.get("growth.length", 0.0),
        "growth.estimate_self_s": self_s.get("growth.estimate", 0.0),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    if not (ROOT / "src" / "verlab" / "__init__.py").is_file():
        raise BenchError(f"no verlab sources under {ROOT / 'src'}")
    requests = workloads.generate(workload, seed)
    start = time.perf_counter()
    end = start + seconds
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        deadline = end if passes and not trace else math.inf
        passes.append(run_pass(workload, seed, traced, check=not passes, deadline=deadline))
        if not trace:
            if time.perf_counter() >= end:
                break
        elif len(passes) >= 2 and time.perf_counter() + passes[-1]["pass_s"] > end:
            break

    checked = passes[0]
    failures: dict[int, str] = {int(i): why for i, why in checked["failures"].items()}
    attempted = missed = failed = 0
    notes = []
    for n, p in enumerate(passes):
        for i, (d, ref) in enumerate(zip(p["digests"], checked["digests"])):
            attempted += 1
            why = failures.get(i)
            if d != ref:
                kind = "traced" if p["trace_pass"] else "untraced"
                why = f"{workloads.describe(requests[i])}: {kind} pass {n} answer differs from the checked pass"
                failed += 1
            elif why and not is_known_defect(requests[i]):
                failed += 1
            if why:
                missed += 1
                if len(notes) < SHOW_FAILURES and (n == 0 or d != ref):
                    notes.append(f"FAILED {why}")

    untraced = [p for p in passes if not p["trace_pass"]]
    lat = [p["latencies"] for p in untraced]
    n_req = len(requests)
    tail_pct = tail(lat[0])[1]
    notes.append(
        f"{len(untraced)} untraced pass(es), {sum(map(len, lat))} timed requests of {n_req} distinct; req_tail_ms is p{tail_pct:.2f} "
        f"of the requests' fastest latencies ({TAIL_ABOVE} requests above it)"
    )
    if trace:
        traced = [p for p in passes if p["trace_pass"]]
        per_pass = [layer_metrics(p["trace"]) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        cli = [p["cli"] for p in untraced] if workload == "cli-mix" else None
        for k in ("exit1", "exit2", "tracebacks", "schema_invalid", "startup_s"):
            metrics[f"cli.{k}"] = statistics.median(c[k] for c in cli) if cli else 0
        metrics["trace.overhead_frac"] = min(p["wall_s"] for p in traced) / min(p["wall_s"] for p in untraced) - 1
        metrics["failed_frac"] = missed / attempted
        units = declared_units("per_layer")
        notes.append(f"{len(traced)} traced pass(es); {traced[-1]['trace']['spans']} spans in the last, written to perfbench/out/")
    else:
        # Contention from other tenants of the host only ever adds time, and
        # it comes in bursts that can cover a whole pass, so each request's
        # fastest latency over the passes is the steadiest estimate of its
        # own cost.  The last pass may cover a prefix only, so memory is a
        # median over the whole passes.
        best = [min(p[i] for p in lat if i < len(p)) for i in range(n_req)]
        whole = [p for p in untraced if len(p["latencies"]) == n_req]
        metrics = {
            "wall_s": sum(best),
            "req_p50_ms": 1000 * statistics.median(best),
            "req_tail_ms": 1000 * tail(best)[0],
            "setup_s": min(p["setup_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in whole) / 1024,
        }
        units = declared_units("end_to_end")
        notes.append(f"failed_frac {missed / attempted:.6f} ({missed} of {attempted}; known defects count here, not in failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, notes


def is_known_defect(req) -> bool:
    return req[0] == "cli" and req[1][0] == "defect"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    try:
        result, notes = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
