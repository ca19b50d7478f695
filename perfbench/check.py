"""Exact-answer gate: canonical answers and their check against references.

References come from ``refs/<workload>.json.gz``, built by ``make_refs.py`` from
the repository's independent oracles where it has one (truncated
Clebsch-Gordan and the Verlinde sum for ``fuse``, the closed-form quantum
dimension for ``fpdim``, ``reconstruct()`` for tilting decompositions,
``nabla_length_by_decomposition`` for growth lengths) and from the seed
commit's output elsewhere.  The p-adic round trips are checked against
closed forms held here: Lucas' theorem for the coefficients of (1-t)^x and
``padic_of_int`` for the recovered digits.

Float fields compare within ``FLOAT_RTOL`` (relative, absolute near 0).
"""
from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
FLOAT_RTOL = 1e-9
TRACEBACK = "Traceback (most recent call last)"


def load_refs(workload: str) -> dict:
    """Stored references; the p-adic round trips need none (their oracles are closed forms)."""
    path = REFS / f"{workload}.json.gz"
    return json.loads(gzip.decompress(path.read_bytes())) if path.exists() else {}


# -- canonical answers --------------------------------------------------------


def canonical(req, raw):
    """JSON-able form of a raw result; the same answer gives the same form."""
    kind, _args = req
    if kind == "fuse":
        return sorted(raw.mults.items())
    if kind == "fpdim":
        return raw
    if kind == "gd":
        return {"lengths": raw.lengths, "roots": raw.roots, "final": raw.final}
    if kind == "tilt":
        dec, kept = raw
        return {"terms": sorted(dec.terms.items()), "kept": sorted(kept.items())}
    if kind == "sgd":
        return {
            "samples": [list(s) for s in raw.samples],
            "final": raw.final,
            "classification": raw.classification,
            "degree": raw.degree,
        }
    if kind == "padic":
        series, digits, extended, palin = raw
        return {
            "series": list(series.coeffs),
            "digits": list(digits.digits),
            "extended": list(extended.coeffs),
            "palindrome": palin,
        }
    if kind == "cli":
        code, out, err = raw
        try:
            payload = json.loads(out) if out.strip() else None
        except ValueError:
            payload = out
        return {"exit": code, "payload": payload, "traceback": TRACEBACK in out + err}
    raise ValueError(f"unknown request kind {kind!r}")


def digest(answer) -> str:
    return hashlib.sha1(json.dumps(answer, sort_keys=True).encode()).hexdigest()


def key(req) -> str:
    kind, args = req
    if kind == "cli":
        return args[1]
    return ",".join(str(a) for a in args)


# -- comparison helpers ---------------------------------------------------------


def close(a, b) -> bool:
    """Equal, with floats (at any depth) equal within FLOAT_RTOL."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    return a == b


def lucas_series(x: int, p: int, n: int) -> list[int]:
    """Coefficients of (1-t)^x mod (p, t^(n+1)), by Lucas' theorem.

    With X = x mod p^M and p^M > n, the t^k coefficient is
    (-1)^k C(X, k) and C(X, k) mod p is the product of C(X_j, k_j) over
    the base-p digits.
    """
    m = 1
    while p**m <= n:
        m += 1
    big = x % p**m
    xd = [(big // p**j) % p for j in range(m)]
    out = []
    for k in range(n + 1):
        c, kk = 1, k
        for j in range(m):
            c = c * math.comb(xd[j], kk % p) % p
            kk //= p
            if not c:
                break
        out.append(c * (-1) ** k % p)
    return out


# -- per-workload checks ----------------------------------------------------------


def check(req, answer, refs: dict, schema=None) -> str | None:
    """None if ``answer`` is right for ``req``, else why it is wrong."""
    kind, args = req
    if kind == "padic":
        return _check_padic(args, answer)
    if kind == "cli":
        return check_cli(args, answer, refs, schema)
    ref = refs[kind].get(key(req))
    if ref is None:
        return f"no stored reference for {kind} {key(req)}"
    if not close(json.loads(json.dumps(answer)), ref):
        return f"answer {_short(answer)} differs from reference {_short(ref)}"
    return None


def _short(v) -> str:
    text = json.dumps(v)
    return text if len(text) <= 160 else text[:157] + "..."


def _check_padic(args, answer) -> str | None:
    from verlab.padic import padic_of_int

    x, p, n = args
    if answer["series"] != lucas_series(x, p, n):
        return "series differs from the Lucas closed form of (1-t)^x"
    m = len(answer["digits"])
    want = list(padic_of_int(x, p, max(m, 1)).digits)
    if m == 0 or p**m <= n or answer["digits"] != want:
        return f"recovered digits {answer['digits']} differ from padic_of_int {want}"
    if answer["extended"] != lucas_series(x + p - 1, p, n):
        return "extension series differs from (1-t)^(x+p-1)"
    want_pal = True if 0 <= x <= n else None
    if answer["palindrome"] is not want_pal:
        return f"palindromy check gave {answer['palindrome']}, expected {want_pal}"
    return None


def cli_outcome(answer, schema) -> dict:
    """Facts about one CLI answer: payload validity and its branch."""
    payload = answer["payload"]
    valid = isinstance(payload, dict) and schema_valid(payload, schema)
    return {
        "valid": valid,
        "result": valid and "result" in payload,
        "error": valid and "error" in payload,
    }


def schema_valid(payload, schema) -> bool:
    import jsonschema

    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError:
        return False
    return True


def check_cli(args, answer, refs: dict, schema) -> str | None:
    cls, rid, _argv, _env = args
    code, payload = answer["exit"], answer["payload"]
    if answer["traceback"]:
        return f"exit {code} with a traceback"
    facts = cli_outcome(answer, schema)
    if cls in ("startup", "valid"):
        ref = refs["cli"][rid]
        if code != 0 or not facts["result"]:
            return f"exit {code} without a schema-valid result payload"
        if not close(payload["result"], ref["result"]):
            return f"result {_short(payload['result'])} differs from reference {_short(ref['result'])}"
        return None
    if cls == "domain":
        ref = refs["cli"][rid]
        if code != 1 or not facts["error"]:
            return f"exit {code}, expected 1 with a schema-valid error envelope"
        if payload["error"]["name"] != ref["error"]:
            return f"error {payload['error']['name']}, expected {ref['error']}"
        return None
    # A usage error exits 2 with nothing or the envelope on stdout.  A known
    # defect's documented answer is that, or exit 1 with the envelope.
    usage_ok = code == 2 and (payload is None or facts["error"])
    if cls == "usage":
        return None if usage_ok else f"exit {code}, expected 2"
    if usage_ok or (code == 1 and facts["error"]):
        return None
    return f"exit {code}, expected 1 or 2 with the error envelope"
