"""Tests of the benchmark itself: seeded inputs, metric names, the answer gate."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_appear_in_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "library", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def _refs(workload):
    return check.load_refs(workload)


def _first(refs, kind):
    k, v = next(iter(sorted(refs[kind].items())))
    args = tuple(a if not a.lstrip("-").isdigit() else int(a) for a in k.split(","))
    return (kind, args), v


@pytest.mark.parametrize("kind", ["fuse", "fpdim", "gd", "tilt"])
def test_checker_rejects_wrong_fusion_table_answers(kind):
    refs = _refs("library")
    req, ref = _first(refs, kind)
    assert check.check(req, ref, refs) is None
    if kind == "fuse":
        wrong = ref + [[len(ref) + 50, 1]]
    elif kind == "fpdim":
        wrong = ref + 1e-6
    elif kind == "gd":
        wrong = dict(ref, lengths=ref["lengths"][:-1] + [ref["lengths"][-1] + 1])
    else:
        wrong = dict(ref, terms=ref["terms"][1:])
    assert check.check(req, wrong, refs)


def test_checker_rejects_wrong_growth_answer():
    refs = _refs("library")
    key = "sl2_sym,3,256"
    ref = refs["sgd"][key]
    req = ("sgd", ("sl2_sym", 3, 256))
    assert check.check(req, ref, refs) is None
    samples = [list(s) for s in ref["samples"]]
    samples[-1][1] += 1
    assert check.check(req, dict(ref, samples=samples), refs)
    assert check.check(req, dict(ref, final=ref["final"] * (1 + 1e-6)), refs)


def test_checker_rejects_wrong_padic_answer():
    req = ("padic", (-6, 3, 60))
    answer = check.canonical(req, workloads.execute(req))
    assert check.check(req, answer, {}) is None
    series = list(answer["series"])
    series[5] = (series[5] + 1) % 3
    assert check.check(req, dict(answer, series=series), {})
    assert check.check(req, dict(answer, digits=answer["digits"][:-1] + [(answer["digits"][-1] + 1) % 3]), {})


def test_checker_judges_cli_answers():
    refs = _refs("cli-mix")
    schema = json.loads((HERE.parent / "src/verlab/data/cli_schema.json").read_text())
    rid, argv, env = workloads.CLI_VALID[0]
    args = ("valid", rid, argv, env)
    good = {"exit": 0, "payload": {"command": "char.weyl", "inputs": {}, "result": refs["cli"][rid]["result"]}, "traceback": False}
    assert check.check(("cli", args), good, refs, schema) is None
    bad = dict(good, payload=dict(good["payload"], result={"weights": {"0": 2}}))
    assert check.check(("cli", args), bad, refs, schema)
    defect = ("defect",) + workloads.CLI_DEFECTS[0]
    envelope = {"command": "char.mul", "inputs": {}, "error": {"name": "InvalidInput", "message": "bad JSON"}}
    assert check.check(("cli", defect), {"exit": 1, "payload": envelope, "traceback": False}, refs, schema) is None
    assert check.check(("cli", defect), {"exit": 1, "payload": None, "traceback": True}, refs, schema)
    assert check.check(("cli", defect), {"exit": 0, "payload": good["payload"], "traceback": False}, refs, schema)


def test_lucas_series_matches_direct_expansion():
    # (1-t)^5 = 1 - 5t + 10t^2 - 10t^3 + 5t^4 - t^5, reduced mod 7
    assert check.lucas_series(5, 7, 6) == [c % 7 for c in (1, -5, 10, -10, 5, -1, 0)]


def test_self_time_excludes_tracer_cost():
    t = tracing.Tracer()
    t.names, t.inside_s, t.residual_s = ["outer", "inner"], 0.01, 0.02
    # outer spans [0, 10]; two inner children of 1 s each, 0.5 s outside each
    for name, parent, start, end, outside in ((0, -1, 0.0, 10.0, 0.0), (1, 0, 1.0, 2.0, 0.5), (1, 0, 4.0, 5.0, 0.5)):
        t.name.append(name)
        t.parent.append(parent)
        t.request.append(0)
        t.start.append(start)
        t.end.append(end)
        t.outside.append(outside)
    agg = t.aggregate()
    assert agg["calls"] == {"outer": 1, "inner": 2}
    assert agg["self_s"]["outer"] == pytest.approx(10 - 0.01 - 2 * (1 + 0.5 + 0.02))
    assert agg["self_s"]["inner"] == pytest.approx(2 * (1 - 0.01))
