"""Build ``perfbench/refs/*.json.gz``, the stored exact answers of the workloads.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run once at the commit whose answers are the reference.  Where the
repository has an independent oracle the reference is built from it and the
production route must agree: truncated Clebsch-Gordan (cross-checked
against the Verlinde S-matrix sum) for ``fuse``, the closed-form quantum
dimension for ``fpdim``, ``reconstruct()`` for tilting decompositions and
``nabla_length_by_decomposition`` for growth lengths.  Everything else is
this commit's output.
"""
from __future__ import annotations

import gzip
import json
import math

from verlab import fusion, growth, tilting

import check
import workloads


def _dump(name: str, refs: dict) -> None:
    check.REFS.mkdir(exist_ok=True)
    text = json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n"
    # mtime=0 keeps the file identical when rebuilt from the same answers
    (check.REFS / f"{name}.json.gz").write_bytes(gzip.compress(text.encode(), 9, mtime=0))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"reference disagrees with its oracle: {what}")


def fusion_refs() -> dict:
    refs: dict = {"fuse": {}, "fpdim": {}, "gd": {}, "tilt": {}}
    for p in workloads.FUSION_PRIMES:
        for a in range(p - 1):
            for b in range(p - 1):
                want = []
                for c in range(p - 1):
                    n = fusion.clebsch_gordan_truncated(p, a, b, c)
                    _require(n == fusion.verlinde_oracle(p, a, b, c), f"CG vs Verlinde at {(p, a, b, c)}")
                    if n:
                        want.append([c, n])
                req = ("fuse", (p, a, b))
                _require(check.canonical(req, fusion.fuse(p, a, b)) == [tuple(x) for x in want], f"fuse{(p, a, b)}")
                refs["fuse"][check.key(req)] = want
    for p, as_ in workloads.FPDIM_AS.items():
        for a in as_:
            qdim = math.sin((a + 1) * math.pi / p) / math.sin(math.pi / p)
            _require(check.close(fusion.fpdim(p, a), qdim), f"fpdim{(p, a)} vs [a+1]_q")
            refs["fpdim"][f"{p},{a}"] = qdim
    for p in workloads.FUSION_PRIMES:
        for a in (1, 2, p - 3):
            req = ("gd", (p, a, workloads.GD_NMAX))
            refs["gd"][check.key(req)] = check.canonical(req, workloads.execute(req))
    for t in workloads.tilt_pool():
        p, a, b, _n = t
        req = ("tilt", t)
        raw = workloads.execute(req)
        product = tilting.tilting_char(p, a) * tilting.tilting_char(p, b)
        _require(raw[0].reconstruct() == product, f"reconstruct of tilt{t}")
        refs["tilt"][check.key(req)] = check.canonical(req, raw)
    return refs


def growth_refs() -> dict:
    refs: dict = {"sgd": {}}
    by_decomposition: dict[int, list[int]] = {}
    for (name, param), ns in workloads.growth_sweeps().items():
        for nmax in ns:
            req = ("sgd", (name, param, nmax))
            ans = check.canonical(req, workloads.execute(req))
            if name == "sl2_sym":
                lengths = by_decomposition.setdefault(param, [])
                for n, cumulative, _est in ans["samples"]:
                    if n <= 512:
                        while len(lengths) <= n:
                            lengths.append(growth.nabla_length_by_decomposition(param, len(lengths)))
                        _require(sum(lengths[: n + 1]) == cumulative, f"lengths of sl2_sym({param}) to {n}")
            refs["sgd"][check.key(req)] = ans
    return refs


def cli_refs() -> dict:
    refs: dict = {"cli": {}}
    for cls in ("startup", "valid", "domain"):
        for variant in workloads.CLI_CLASSES[cls]:
            code, out, err = workloads.run_cli((cls,) + variant)
            payload = json.loads(out)
            if cls == "domain":
                _require(code == 1 and "error" in payload, f"{variant[0]} exits 1 with an error")
                refs["cli"][variant[0]] = {"error": payload["error"]["name"]}
            else:
                _require(code == 0 and "result" in payload, f"{variant[0]} exits 0 with a result: {err}")
                refs["cli"][variant[0]] = {"result": payload["result"]}
    return refs


def main() -> None:
    _dump("library", fusion_refs() | growth_refs())
    _dump("cli-mix", cli_refs())


if __name__ == "__main__":
    main()
