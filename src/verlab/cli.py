"""Command-line front door: every operation, machine-readable output.

Each command is one registry entry, made with ``@command(group, name,
provenance, *options)``; its body takes the parsed options and returns the
result.  ``main`` builds the ``argparse`` parser of the one command that
its first two arguments name, adds ``--json/--text`` (JSON is the default;
``--text`` prints one human-readable line), checks that ``-p``, when
given, is prime, and builds every ``{command, inputs, result | error}``
envelope.  Malformed input is a usage error (exit 2, with a message on
stderr that names the option); domain errors, a non-prime ``-p`` among
them, exit 1 with a machine-readable error object.  Series commands
truncate at 64 unless ``--prec`` or the VERLAB_PREC environment variable
says otherwise.  Bodies reach the layers through their modules at call
time, and layers load on first use (see ``verlab/__init__.py``), so a
command runs only the layers it calls.

``run`` is the process entry (``verlab``, ``python -m verlab.cli``): after
``main`` it flushes stdout (a closed one exits 1, stderr empty) and calls
``gc.freeze()``, so the exit-time collections skip what the command made and
the OS frees it.  ``main`` leaves the collector alone, because the tests and
the benchmark's tracer call it inside their own process.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Any, Callable

from . import characters, fusion, growth, padic, tilting, verpn
from .errors import VerlabError, require_prime


class UsageError(Exception):
    """Options that parse but do not fit together: exit 2, as a parse error does."""


def _is_weight_map(data: Any) -> bool:
    """A folded weight map {"m": mult}, optionally wrapped in {"weights": ...}."""
    if isinstance(data, dict):
        data = data.get("weights", data)
    return isinstance(data, dict) and all(
        w.removeprefix("-").isdecimal() and type(k) is int for w, k in data.items()
    )


def _is_int_array(data: Any) -> bool:
    return isinstance(data, list) and all(type(c) is int for c in data)


def _option_type(
    parse: Callable[[str], Any], ok: Callable[[Any], bool], what: str
) -> Callable[[str], Any]:
    """Option type: the text ``parse``d if that passes ``ok``, else a usage error."""

    def convert(text: str) -> Any:
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return convert


_weight_map = _option_type(json.loads, _is_weight_map, 'a JSON weight map like {"1": 1}')
_int_array = _option_type(json.loads, _is_int_array, "a JSON array of integers")
_int_list = _option_type(
    lambda text: [int(x) for x in text.split(",")], lambda ints: True,
    "comma-separated integers",
)
_non_negative = _option_type(int, lambda n: n >= 0, "an integer >= 0")


def _readable_file(path: str) -> str:
    try:
        with open(path, "rb"):
            return path
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc.strerror}") from None


def _opt(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    """An option of ``command``: ``add_argument`` flags and keywords.

    It is an int unless given a type, and required unless given a default; a
    callable default is read when the command's parser is built.
    """
    return flags, {"type": int, "required": "default" not in kwargs, **kwargs}


def _render_character(c: characters.Character) -> dict:
    # unsorted: ``main`` prints with sort_keys, which orders the string keys
    return {"weights": {str(w): k for w, k in c.coeffs.items()}}


def _parse_character(data: dict) -> characters.Character:
    data = data.get("weights", data)
    return characters.Character({int(w): k for w, k in data.items()})


def _render_padic(d: padic.PadicDigits) -> dict:
    return {
        "p": d.p,
        "digits": list(d.digits),
        "precision": d.precision,
        "signed_int": d.to_signed_int(),
    }


def _render_series(s: padic.FpSeries) -> dict:
    return {"p": s.p, "coeffs": list(s.coeffs), "truncation": s.truncation}


_GROUPS = {
    "char": "SL2 character-ring operations.",
    "tilt": "Tilting tensor-product decompositions.",
    "verp": "Level-p fusion ring operations.",
    "verpn": "Level-p^n simple-object calculus.",
    "padic": "F_p series and p-adic dimension arithmetic.",
    "sgd": "Symmetric growth dimension estimation.",
}

# (group, name) -> (provenance, option specs, body)
_COMMANDS: dict[tuple[str, str], tuple[str, tuple, Callable[..., Any]]] = {}


def command(group: str, name: str, provenance: str, *options: str | tuple) -> Callable:
    """Register the decorated body as ``group name`` with these options.

    An option is an ``_opt`` spec, or a bare flag for a required int.  The
    body takes the parsed options and returns the result, which ``main``
    prints inside ``{command, inputs, result, provenance}``; ``inputs`` are
    the parsed options.  A body that raises ``UsageError`` exits 2.
    """
    specs = tuple(_opt(o) if isinstance(o, str) else o for o in options)

    def register(body: Callable[..., Any]) -> Callable[..., Any]:
        _COMMANDS[group, name] = (provenance, specs, body)
        return body

    return register


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command that ``args`` (default ``sys.argv[1:]``) names, or list commands."""
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or "verlab"
    if tuple(args[:2]) not in _COMMANDS:
        _list_commands(prog, args)
    group, name = args[:2]
    provenance, options, body = _COMMANDS[group, name]
    parser = argparse.ArgumentParser(
        prog=f"{prog} {group} {name}", description=provenance, allow_abbrev=False
    )
    for flags, kwargs in options:
        if callable(kwargs.get("default")):
            kwargs = {**kwargs, "default": kwargs["default"]()}
        parser.add_argument(*flags, **kwargs)
    parser.add_argument(
        "--json", dest="as_json", action="store_true", default=True,
        help="machine-readable JSON (the default)",
    )
    parser.add_argument(
        "--text", dest="as_json", action="store_false", help="one human-readable line"
    )
    takes_value = {flag for flags, _ in options for flag in flags}
    words, argv = iter(args[2:]), []
    for word in words:
        # an option's value is the next word, even "-1,2", which argparse takes for an option
        argv.append(f"{word}={next(words, '')}" if word in takes_value else word)
    inputs = vars(parser.parse_args(argv))
    as_json = inputs.pop("as_json")
    payload = {"command": f"{group}.{name}", "inputs": inputs}
    try:
        if inputs.get("p") is not None:
            require_prime(inputs["p"])
        payload.update(result=body(**inputs), provenance=provenance)
    except UsageError as exc:
        parser.error(str(exc))
    except (VerlabError, ValueError) as exc:
        error = exc.name if isinstance(exc, VerlabError) else "InvalidInput"
        payload["error"] = {"name": error, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True))
        sys.exit(1)
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{payload['command']}: {json.dumps(payload['result'], sort_keys=True)}")


def _list_commands(prog: str, args: list[str]) -> None:
    """Help (exit 0) or a usage error (exit 2) for arguments that name no command."""
    description, names = "Exact invariants of modular SL2 and Verlinde-category data.", _GROUPS
    if args and args[0] in _GROUPS:
        prog, description = f"{prog} {args[0]}", _GROUPS[args[0]]
        names = {n: prov for (g, n), (prov, _, _) in _COMMANDS.items() if g == args[0]}
        args = args[1:]
    parser = argparse.ArgumentParser(prog=prog, description=description, allow_abbrev=False)
    choices = parser.add_subparsers(dest="choice", metavar="COMMAND", required=True)
    for name, help_text in names.items():
        choices.add_parser(name, help=help_text)
    parser.parse_args(args)
    parser.error("the group and the command come before any option")


# -- char -----------------------------------------------------------------


@command("char", "weyl", "quantum integer [m+1]_q", "-m")
def char_weyl(m: int) -> dict:
    return _render_character(characters.weyl_char(m))


@command("char", "simple", "Steinberg weights from the base-p digits of m", "-p", "-m")
def char_simple(p: int, m: int) -> dict:
    return _render_character(characters.simple_char(p, m))


@command("char", "tilt", "Weyl factors from the base-p digits of m+1", "-p", "-m")
def char_tilt(p: int, m: int) -> dict:
    return _render_character(tilting.tilting_char(p, m))


@command(
    "char", "mul", "Laurent convolution, refolded",
    _opt("--a", type=_weight_map, help='folded weight map, e.g. {"1": 1}'),
    _opt("--b", type=_weight_map),
)
def char_mul(a: dict, b: dict) -> dict:
    return _render_character(_parse_character(a) * _parse_character(b))


@command(
    "char", "decompose", "greedy unitriangular peeling",
    _opt("--char", type=_weight_map, help="folded weight map"),
    _opt("--basis", type=str, choices=("weyl", "simple", "tilting")),
    _opt("-p", default=None),
)
def char_decompose(char: dict, basis: str, p: int | None) -> dict:
    if p is None and basis != "weyl":
        raise UsageError(f"{basis} basis needs -p")
    dec = characters.decompose(_parse_character(char), characters.Basis(basis), p)
    return {"terms": {str(m): mult for m, mult in dec.terms.items()}}


# -- tilt -----------------------------------------------------------------


@command(
    "tilt", "fuse-decompose", "character decomposition in the tilting basis", "-p", "-a", "-b"
)
def tilt_fuse_decompose(p: int, a: int, b: int) -> list:
    dec = tilting.tensor_decompose_tilt(p, a, b)
    return [{"T": m, "mult": mult} for m, mult in sorted(dec.terms.items())]


# -- verp -----------------------------------------------------------------


@command("verp", "fuse", "tilting quotient: decompose, drop negligibles", "-p", "-a", "-b")
def verp_fuse(p: int, a: int, b: int) -> list:
    return [{"L": i, "mult": m} for i, m in sorted(fusion.fuse(p, a, b).mults.items())]


@command("verp", "oracle", "exact S-matrix sum over 2p-th roots of unity", "-p", "-a", "-b", "-c")
def verp_oracle(p: int, a: int, b: int, c: int) -> int:
    return fusion.verlinde_oracle(p, a, b, c)


@command("verp", "fpdim", "Perron-Frobenius certificate from the rows of L_1", "-p", "-a")
def verp_fpdim(p: int, a: int) -> float:
    return fusion.fpdim(p, a)


@command(
    "verp", "gd", "exact iterated fusion lengths",
    "-p", _opt("-a", help="simple index to iterate"), _opt("--nmax", default=40),
)
def verp_gd(p: int, a: int, nmax: int) -> dict:
    est = fusion.gd_estimate(p, fusion.FusionElement.simple(p, a), nmax)
    return {"roots": est.roots, "final": est.final}


# -- verpn ----------------------------------------------------------------


@command("verpn", "digits", "base-p expansion", "-p", "-n", "-i")
def verpn_digits(p: int, n: int, i: int) -> list:
    return list(verpn.steinberg_digits(p, n, i))


@command(
    "verpn", "product", "Steinberg tensor product",
    "-p", "-n", _opt("--digits", type=_int_list, help="comma-separated"),
)
def verpn_product(p: int, n: int, digits: list[int]) -> int:
    return verpn.steinberg_product(p, n, digits)


@command("verpn", "embed", "index multiplies by p one level up", "-p", "-n", "-i")
def verpn_embed(p: int, n: int, i: int) -> int:
    return verpn.embed(p, n, i)


@command("verpn", "oddline", "index p^(n-1)(p-2)", "-p", "-n")
def verpn_oddline(p: int, n: int) -> int:
    return verpn.odd_line(p, n)


@command("verpn", "sympower", "symmetric-power knowledge base", "-p", "-n", "-i", "-k")
def verpn_sympower(p: int, n: int, i: int, k: int) -> dict:
    st = verpn.sym_power_status(p, n, i, k)
    return {
        "status": st.status.value,
        "rule": st.rule,
        "has_unit_summand": st.has_unit_summand,
    }


# -- padic ----------------------------------------------------------------


@command(
    "padic", "pow", "digit product expansion of (1-t)^d",
    "-p",
    _opt("--exp", help="integer exponent d"),
    # a string default is parsed as if given, so a malformed VERLAB_PREC is
    # a usage error that names --prec
    _opt(
        "--prec",
        default=lambda: os.environ.get("VERLAB_PREC") or padic.DEFAULT_TRUNCATION,
        help="series truncation N (environment: VERLAB_PREC)",
    ),
)
def padic_pow(p: int, exp: int, prec: int) -> dict:
    return _render_series(padic.one_minus_t_pow_int(exp, p, prec))


@command(
    "padic", "recover", "digits read at t^(p^j), certified by re-expansion",
    "-p", _opt("--series", type=_int_array, help="JSON array of residues"),
)
def padic_recover(p: int, series: list[int]) -> dict:
    e = padic.dimplus_from_series(padic.FpSeries(p, tuple(series)))
    return {"exponent": _render_padic(e), "dimplus": _render_padic(padic.padic_neg(e))}


@command(
    "padic", "finite", "finite symmetric algebra rule",
    _opt("--top", help="top nonvanishing symmetric power"),
    _opt("-p", default=None, help="a prime; the answer does not depend on it"),
)
def padic_finite(top: int, p: int | None) -> dict:
    return {"dimplus": padic.dimplus_of_finite_sym(top, p)}


@command(
    "padic", "extend", "extension transform: shift by 1-nlen and by 1",
    "-p", "--nlen", "--dimv", "--dimvdual",
)
def padic_extend(p: int, nlen: int, dimv: int, dimvdual: int) -> dict:
    de, ded = padic.extension_transform(p, nlen, dimv, dimvdual)
    return {"dimplus_e": de, "dimplus_e_dual": ded}


@command(
    "padic", "palindrome", "twisted palindromy of a finite Hilbert series",
    "-p", _opt("--series", type=_int_array, help="JSON array, length d+1"),
)
def padic_palindrome(p: int, series: list[int]) -> bool:
    return padic.frobenius_palindromy_check(p, series, len(series) - 1)


# -- sgd ------------------------------------------------------------------


def _build_provider(
    provider: str, p: int | None, m: int | None, csv_path: str | None
) -> growth.LengthProvider:
    if provider == "binomial":
        if m is None:
            raise UsageError("binomial provider needs --m")
        return growth.binomial_provider(m)
    if provider == "partitions":
        return growth.partitions_provider()
    if provider == "sl2_sym":
        if p is None:
            raise UsageError("sl2_sym provider needs -p")
        return growth.sl2_sym_provider(p)
    if provider == "constant":
        return growth.constant_provider()
    # --provider choices have rejected any other name, so this is "csv"
    if csv_path is None:
        raise UsageError("csv provider needs --csv")
    return growth.csv_provider(csv_path)


# the keywords of _build_provider, then --nmax
_PROVIDER_OPTIONS = (
    _opt(
        "--provider", type=str,
        choices=("binomial", "partitions", "sl2_sym", "constant", "csv"),
    ),
    _opt("-p", default=None),
    _opt("--m", default=None),
    _opt("--csv", dest="csv_path", type=_readable_file, default=None),
    _opt("--nmax", default=2**14),
)


@command(
    "sgd", "estimate", "tail fit of cumulative symmetric lengths at powers of two",
    *_PROVIDER_OPTIONS,
)
def sgd_estimate_cmd(nmax: int, **provider: Any) -> dict:
    est = growth.sgd_estimate(_build_provider(**provider), nmax)
    return {
        "samples": [
            {"n": n, "cumulative": str(s), "estimate": e} for n, s, e in est.samples
        ],
        "final": est.final,
        "classification": est.classification,
        "degree": est.degree,
        "diagnostics": est.diagnostics,
    }


@command(
    "sgd", "diagnose", "growth estimate vs dim Hom(X, unit)",
    *_PROVIDER_OPTIONS,
    _opt("--homdim", type=_non_negative, default=None, help="override the provider hom_dim"),
)
def sgd_diagnose_cmd(nmax: int, homdim: int | None, **provider: Any) -> dict:
    prov = _build_provider(**provider)
    if homdim is not None:
        prov.hom_dim = homdim
    report = growth.mn_diagnostic(prov, nmax)
    return {
        "sgd_estimate": report.estimate.final,
        "classification": report.estimate.classification,
        "hom_dim": report.hom_dim,
        "inequality_ok": report.inequality_ok,
        "equality_verdict": report.equality_verdict,
    }


def run() -> None:
    """Process entry: ``main``, then a frozen heap that the exit-time collections skip."""
    try:
        try:
            main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
