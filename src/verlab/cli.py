"""Command-line front door: every operation, machine-readable output.

Each command is registered with ``@command(group, name, provenance)``; its
body takes the parsed options and returns the result.  The helper adds
``--json/--text`` (JSON is the default; ``--text`` prints one
human-readable line), checks that ``-p``, when given, is prime, and builds
every ``{command, inputs, result | error}`` envelope.  Click parses every
option, so malformed input is a usage error (exit 2); domain errors, a
non-prime ``-p`` among them, exit 1 with a machine-readable error object.
The truncation for series commands defaults to 64 and can be overridden by
``--prec`` or the VERLAB_PREC environment variable.  Layers load on first
use (see ``verlab/__init__.py``), so a command runs only the layers it
calls, and an option default that reads a layer is resolved at parse time.
"""
from __future__ import annotations

import functools
import json
import sys
from typing import Any, Callable

import click

from . import characters, fusion, growth, padic, tilting, verpn
from .errors import VerlabError, require_prime


def _is_weight_map(data: Any) -> bool:
    """A folded weight map {"m": mult}, optionally wrapped in {"weights": ...}."""
    if isinstance(data, dict):
        data = data.get("weights", data)
    return isinstance(data, dict) and all(
        w.removeprefix("-").isdecimal() and type(k) is int for w, k in data.items()
    )


def _is_int_array(data: Any) -> bool:
    return isinstance(data, list) and all(type(c) is int for c in data)


def _json_option(shape: Callable[[Any], bool], what: str) -> Callable:
    """Option callback: decode JSON text of the given shape, else a usage error."""

    def decode(ctx: click.Context, param: click.Parameter, text: str) -> Any:
        try:
            value = json.loads(text)
        except ValueError:
            value = None
        if not shape(value):
            raise click.BadParameter(f"expected {what}, got {text!r}")
        return value

    return decode


_weight_map_option = _json_option(_is_weight_map, 'a JSON weight map like {"1": 1}')
_int_array_option = _json_option(_is_int_array, "a JSON array of integers")


def _int_list_option(ctx: click.Context, param: click.Parameter, text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {text!r}") from None


def _render_character(c: characters.Character) -> dict:
    return {"weights": {str(w): k for w, k in sorted(c.coeffs.items())}}


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


def command(group: click.Group, name: str, provenance: str) -> Callable:
    """Register the decorated body as ``group name`` inside the output envelope.

    The body takes the parsed options and returns the result.  The helper
    adds ``--json/--text``, checks that ``-p``, when given, is prime, and
    prints ``{command, inputs, result, provenance}``; a domain error prints
    ``{command, inputs, error}`` and exits 1.  ``inputs`` are the parsed
    options.
    """

    def register(body: Callable[..., Any]) -> click.Command:
        @functools.wraps(body)
        def run(as_json: bool, **inputs: Any) -> None:
            payload = {"command": f"{group.name}.{name}", "inputs": inputs}
            try:
                if inputs.get("p") is not None:
                    require_prime(inputs["p"])
                payload.update(result=body(**inputs), provenance=provenance)
            except (VerlabError, ValueError) as exc:
                error = exc.name if isinstance(exc, VerlabError) else "InvalidInput"
                payload["error"] = {"name": error, "message": str(exc)}
                click.echo(json.dumps(payload, sort_keys=True))
                sys.exit(1)
            if as_json:
                click.echo(json.dumps(payload, sort_keys=True))
            else:
                result = json.dumps(payload["result"], sort_keys=True)
                click.echo(f"{payload['command']}: {result}")

        cmd = group.command(name)(run)
        cmd.params.append(
            click.Option(
                ["--json/--text", "as_json"],
                default=True,
                help="machine-readable JSON (default) or a human-readable line",
            )
        )
        return cmd

    return register


@click.group()
def main() -> None:
    """Exact invariants of modular SL2 and Verlinde-category data."""


# -- char -----------------------------------------------------------------


@main.group()
def char() -> None:
    """SL2 character-ring operations."""


@command(char, "weyl", "quantum integer [m+1]_q")
@click.option("-m", type=int, required=True)
def char_weyl(m: int) -> dict:
    return _render_character(characters.weyl_char(m))


@command(char, "simple", "Steinberg digit factorization")
@click.option("-p", type=int, required=True)
@click.option("-m", type=int, required=True)
def char_simple(p: int, m: int) -> dict:
    return _render_character(characters.simple_char(p, m))


@command(char, "tilt", "Weyl factors from the base-p digits of m+1")
@click.option("-p", type=int, required=True)
@click.option("-m", type=int, required=True)
def char_tilt(p: int, m: int) -> dict:
    return _render_character(tilting.tilting_char(p, m))


@command(char, "mul", "Laurent convolution, refolded")
@click.option(
    "--a", required=True, callback=_weight_map_option, help='folded weight map, e.g. {"1": 1}'
)
@click.option("--b", required=True, callback=_weight_map_option)
def char_mul(a: dict, b: dict) -> dict:
    return _render_character(_parse_character(a) * _parse_character(b))


@command(char, "decompose", "greedy unitriangular peeling")
@click.option("--char", required=True, callback=_weight_map_option, help="folded weight map")
@click.option(
    "--basis",
    type=click.Choice([b.value for b in characters.Basis]),
    required=True,
)
@click.option("-p", type=int, default=None)
def char_decompose(char: dict, basis: str, p: int | None) -> dict:
    dec = characters.decompose(_parse_character(char), characters.Basis(basis), p)
    return {"terms": {str(m): mult for m, mult in sorted(dec.terms.items())}}


# -- tilt -----------------------------------------------------------------


@main.group("tilt")
def tilt_group() -> None:
    """Tilting tensor-product decompositions."""


@command(tilt_group, "fuse-decompose", "character decomposition in the tilting basis")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@click.option("-b", type=int, required=True)
def tilt_fuse_decompose(p: int, a: int, b: int) -> list:
    dec = tilting.tensor_decompose_tilt(p, a, b)
    return [{"T": m, "mult": mult} for m, mult in sorted(dec.terms.items())]


# -- verp -----------------------------------------------------------------


@main.group()
def verp() -> None:
    """Level-p fusion ring operations."""


@command(verp, "fuse", "tilting quotient: decompose, drop negligibles")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@click.option("-b", type=int, required=True)
def verp_fuse(p: int, a: int, b: int) -> list:
    return [{"L": i, "mult": m} for i, m in sorted(fusion.fuse(p, a, b).mults.items())]


@command(verp, "oracle", "numeric S-matrix sum")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@click.option("-b", type=int, required=True)
@click.option("-c", type=int, required=True)
def verp_oracle(p: int, a: int, b: int, c: int) -> int:
    return fusion.verlinde_oracle(p, a, b, c)


@command(verp, "fpdim", "Collatz-Wielandt certificate of [a+1]_q")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
def verp_fpdim(p: int, a: int) -> float:
    return fusion.fpdim(p, a)


@command(verp, "gd", "exact iterated fusion lengths")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True, help="simple index to iterate")
@click.option("--nmax", type=int, default=40)
def verp_gd(p: int, a: int, nmax: int) -> dict:
    est = fusion.gd_estimate(p, fusion.FusionElement.simple(p, a), nmax)
    return {"roots": est.roots, "final": est.final}


# -- verpn ----------------------------------------------------------------


@main.group("verpn")
def verpn_group() -> None:
    """Level-p^n simple-object calculus."""


@command(verpn_group, "digits", "base-p expansion")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-i", type=int, required=True)
def verpn_digits(p: int, n: int, i: int) -> list:
    return list(verpn.steinberg_digits(p, n, i))


@command(verpn_group, "product", "Steinberg tensor product")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("--digits", required=True, callback=_int_list_option, help="comma-separated")
def verpn_product(p: int, n: int, digits: list[int]) -> int:
    return verpn.steinberg_product(p, n, digits).index


@command(verpn_group, "embed", "index multiplies by p one level up")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-i", type=int, required=True)
def verpn_embed(p: int, n: int, i: int) -> int:
    return verpn.embed(p, n, i)


@command(verpn_group, "oddline", "index p^(n-1)(p-2)")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
def verpn_oddline(p: int, n: int) -> int:
    return verpn.odd_line(p, n)


@command(verpn_group, "sympower", "symmetric-power knowledge base")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-i", type=int, required=True)
@click.option("-k", type=int, required=True)
def verpn_sympower(p: int, n: int, i: int, k: int) -> dict:
    st = verpn.sym_power_status(p, n, i, k)
    return {
        "status": st.status.value,
        "rule": st.rule,
        "has_unit_summand": st.has_unit_summand,
    }


# -- padic ----------------------------------------------------------------


@main.group("padic")
def padic_group() -> None:
    """F_p series and p-adic dimension arithmetic."""


@command(padic_group, "pow", "digit product expansion of (1-t)^d")
@click.option("-p", type=int, required=True)
@click.option("--exp", type=int, required=True, help="integer exponent d")
@click.option(
    "--prec",
    type=int,
    default=lambda: padic.DEFAULT_TRUNCATION,
    envvar="VERLAB_PREC",
    help="series truncation N",
)
def padic_pow(p: int, exp: int, prec: int) -> dict:
    return _render_series(padic.one_minus_t_pow_int(exp, p, prec))


@command(padic_group, "recover", "digit-read recovery with a divisibility certificate per level")
@click.option("-p", type=int, required=True)
@click.option(
    "--series", required=True, callback=_int_array_option, help="JSON array of residues"
)
def padic_recover(p: int, series: list[int]) -> dict:
    e = padic.dimplus_from_series(padic.FpSeries(p, tuple(series)))
    return {"exponent": _render_padic(e), "dimplus": _render_padic(padic.padic_neg(e))}


@command(padic_group, "finite", "finite symmetric algebra rule")
@click.option("--top", type=int, required=True, help="top nonvanishing symmetric power")
@click.option("-p", type=int, default=None)
def padic_finite(top: int, p: int | None) -> dict:
    return {"dimplus": padic.dimplus_of_finite_sym(top, p)}


@command(padic_group, "extend", "extension transform: shift by 1-nlen and by 1")
@click.option("-p", type=int, required=True)
@click.option("--nlen", type=int, required=True)
@click.option("--dimv", type=int, required=True)
@click.option("--dimvdual", type=int, required=True)
def padic_extend(p: int, nlen: int, dimv: int, dimvdual: int) -> dict:
    de, ded = padic.extension_transform(p, nlen, dimv, dimvdual)
    return {"dimplus_e": de, "dimplus_e_dual": ded}


@command(padic_group, "palindrome", "twisted palindromy of a finite Hilbert series")
@click.option("-p", type=int, required=True)
@click.option(
    "--series", required=True, callback=_int_array_option, help="JSON array, length d+1"
)
def padic_palindrome(p: int, series: list[int]) -> bool:
    return padic.frobenius_palindromy_check(p, series, len(series) - 1)


# -- sgd ------------------------------------------------------------------


@main.group("sgd")
def sgd_group() -> None:
    """Symmetric growth dimension estimation."""


def _build_provider(
    provider: str, p: int | None, m: int | None, csv_path: str | None
) -> growth.LengthProvider:
    if provider == "binomial":
        if m is None:
            raise click.UsageError("binomial provider needs --m")
        return growth.binomial_provider(m)
    if provider == "partitions":
        return growth.partitions_provider()
    if provider == "sl2_sym":
        if p is None:
            raise click.UsageError("sl2_sym provider needs -p")
        return growth.sl2_sym_provider(p)
    if provider == "constant":
        return growth.constant_provider()
    # click.Choice has rejected any other name, so this is "csv"
    if csv_path is None:
        raise click.UsageError("csv provider needs --csv")
    return growth.csv_provider(csv_path)


_provider_options = [
    click.option(
        "--provider",
        type=click.Choice(["binomial", "partitions", "sl2_sym", "constant", "csv"]),
        required=True,
    ),
    click.option("-p", type=int, default=None),
    click.option("--m", type=int, default=None),
    click.option("--csv", "csv_path", type=click.Path(exists=True, dir_okay=False)),
    click.option("--nmax", type=int, default=2**14),
]


def _with_provider_options(f: Callable) -> Callable:
    for opt in reversed(_provider_options):
        f = opt(f)
    return f


@command(sgd_group, "estimate", "tail fit of cumulative symmetric lengths at powers of two")
@_with_provider_options
def sgd_estimate_cmd(
    provider: str, p: int | None, m: int | None, csv_path: str | None, nmax: int
) -> dict:
    est = growth.sgd_estimate(_build_provider(provider, p, m, csv_path), nmax)
    return {
        "samples": [
            {"n": n, "cumulative": str(s), "estimate": e} for n, s, e in est.samples
        ],
        "final": est.final,
        "classification": est.classification,
        "degree": est.degree,
        "diagnostics": est.diagnostics,
    }


@command(sgd_group, "diagnose", "growth estimate vs dim Hom(X, unit)")
@_with_provider_options
@click.option("--homdim", type=int, default=None, help="override the provider hom_dim")
def sgd_diagnose_cmd(
    provider: str,
    p: int | None,
    m: int | None,
    csv_path: str | None,
    nmax: int,
    homdim: int | None,
) -> dict:
    prov = _build_provider(provider, p, m, csv_path)
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


if __name__ == "__main__":
    main()
