"""Record the benchmark's baseline: every metric's spread over many seeds.

    python3 perfbench/baseline.py

Runs ``run.py`` for every workload of BENCHMARK.json with seeds 1..10
untraced and seeds 1..3 traced, each for the run length BENCHMARK.json sets,
and prints for every metric the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread: the distance between the
quartiles as a share of the median.  It flags every end-to-end spread above
a third of its bound, then writes the whole summary, with the machine it was
measured on, to ``perfbench/baseline.json``.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
RUNS = 10
TRACE_RUNS = 3


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect answers:\n{out.stdout}")
    return result


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": m["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values),
        }
    return summary


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out: dict = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "bounds": bounds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        entry = out["workloads"][workload] = {}
        for trace, runs in ((0, RUNS), (1, TRACE_RUNS)):
            summary = summarise([one_run(workload, seed, seconds, trace) for seed in range(1, runs + 1)])
            entry["end_to_end" if trace == 0 else "per_layer"] = summary
            for name, s in summary.items():
                flag = ""
                if name in bounds and s["spread"] > bounds[name] / 3:
                    flag = f"  <-- above a third of bound {bounds[name]}"
                print(
                    f"{workload:13s} {name:34s} median {s['median']:12.6g} {s['unit']:5s} "
                    f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}{flag}",
                    flush=True,
                )
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
