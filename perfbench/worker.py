"""One pass of a workload in a fresh interpreter, so every cache starts cold.

    python3 perfbench/worker.py WORKLOAD SEED --trace 0|1 --check 0|1 [--deadline T]

Generates the workload's requests from the seed, sends them one at a time
(a closed loop: one client, no threads), then prints one JSON object with
the time set-up finished, per-request latencies, answer digests, peak RSS
and, with ``--check 1``, every request that failed its exact-answer check.
With ``--trace 1`` it wraps the layers first, reports their aggregates and
writes the spans to ``perfbench/out/spans-<workload>.json``.  With
``--deadline T`` (a ``time.perf_counter`` reading) it sends no request after
T, so the pass may end with only a prefix of the requests.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import verlab  # noqa: F401  (set-up includes the import)

import check
import workloads


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, default=float("inf"))
    opts = ap.parse_args()
    requests = workloads.generate(opts.workload, opts.seed)
    is_cli = opts.workload == "cli-mix"
    tracer = None
    run = workloads.execute
    if opts.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.span("request", workloads.execute)
    workloads.OUT.mkdir(exist_ok=True)
    ready = time.perf_counter()

    latencies, raws, errors = [], [], {}
    cli_trace = {}
    for i, req in enumerate(requests):
        if time.perf_counter() >= opts.deadline:
            break
        trace_out = None
        if tracer:
            tracer.current_request = i
            if is_cli:
                trace_out = workloads.OUT / f"cli-trace-{i}.json"
        t0 = time.perf_counter()
        try:
            raw = run(req, trace_out)
        except Exception as exc:  # a request that raises is a failed request
            raw = None
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        raws.append(raw)
        if trace_out is not None and trace_out.exists():
            cli_trace[i] = json.loads(trace_out.read_text())
            trace_out.unlink()
    wall = time.perf_counter() - ready
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)

    schema = json.loads((workloads.ROOT / "src/verlab/data/cli_schema.json").read_text()) if is_cli else None
    answers = [None if i in errors else check.canonical(req, raw) for i, (req, raw) in enumerate(zip(requests, raws))]
    report = {
        "ready": ready,
        "wall_s": wall,
        "latencies": latencies,
        "maxrss_kb": usage.ru_maxrss,
        "digests": [check.digest(a) for a in answers],
        "failures": {},
        "cli": cli_counts(requests, answers, latencies, schema) if is_cli and len(raws) == len(requests) else None,
    }
    if opts.check:
        refs = check.load_refs(opts.workload)
        for i, (req, ans) in enumerate(zip(requests, answers)):
            why = errors.get(i) or check.check(req, ans, refs, schema)
            if why:
                report["failures"][i] = f"{workloads.describe(req)}: {why}"
    else:
        report["failures"] = {i: f"{workloads.describe(requests[i])}: {why}" for i, why in errors.items()}
    if tracer:
        report["trace"] = finish_trace(tracer, cli_trace, opts.workload)
    json.dump(report, sys.stdout)


def cli_counts(requests, answers, latencies, schema) -> dict:
    """Exit codes, tracebacks, missing or invalid payloads and the median
    latency of the requests that do no compute, for one cli-mix pass."""
    counts = {"exit1": 0, "exit2": 0, "tracebacks": 0, "schema_invalid": 0}
    counts["startup_s"] = statistics.median(
        t for req, t in zip(requests, latencies) if req[1][0] == "startup"
    )
    for ans in answers:
        if ans is None:
            continue
        counts["exit1"] += ans["exit"] == 1
        counts["exit2"] += ans["exit"] == 2
        counts["tracebacks"] += ans["traceback"]
        if ans["exit"] in (0, 1) and not check.cli_outcome(ans, schema)["valid"]:
            counts["schema_invalid"] += 1
    return counts


def finish_trace(tracer, cli_trace: dict, workload: str) -> dict:
    """Aggregate the pass's spans, with those of its traced CLI children, and
    write them to perfbench/out/."""
    agg = tracer.aggregate()
    spans = tracer.spans()
    for i, child in sorted(cli_trace.items()):
        offset = len(spans["start"])
        for name_idx, par, start, end in zip(child["name"], child["parent"], child["start"], child["end"]):
            name = child["names"][name_idx]
            if name not in spans["names"]:
                spans["names"].append(name)
            spans["name"].append(spans["names"].index(name))
            spans["parent"].append(par + offset if par >= 0 else -1)
            spans["start"].append(start)
            spans["end"].append(end)
            spans["request"].append(i)
        for part in ("calls", "self_s", "counts"):
            for k, v in child["aggregate"][part].items():
                agg[part][k] = agg[part].get(k, 0) + v
        for label, st in child["aggregate"]["caches"].items():
            mine = agg["caches"][label]
            for k in ("hits", "misses", "size"):
                mine[k] += st[k]
        agg["spans"] += child["aggregate"]["spans"]
    with open(workloads.OUT / f"spans-{workload}.json", "w") as fh:
        json.dump(spans, fh)
    return agg


if __name__ == "__main__":
    main()
