"""Command-line front door: every operation, machine-readable output.

JSON is the default output format; ``--text`` renders small human-readable
tables.  Click parses every option, so malformed input is a usage error
(exit 2); domain errors exit 1 with a machine-readable error object.  The
truncation for series commands defaults to 64 and can be overridden by
``--prec`` or the VERLAB_PREC environment variable.
"""
from __future__ import annotations

import json
import sys
from typing import Any, Callable

import click

from . import characters, fusion, growth, padic, tilting, verpn
from .errors import VerlabError


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


def emit(compute: Callable[[], tuple[Any, str]], as_json: bool) -> None:
    """Run a command body and print a stable payload; exit 1 on domain error.

    The command name and the inputs come from click's context: the group
    and command names, and every parsed option except the output format.
    """
    ctx = click.get_current_context()
    command = f"{ctx.parent.info_name}.{ctx.info_name}"
    inputs = {k: v for k, v in ctx.params.items() if k != "as_json"}
    try:
        result, provenance = compute()
    except (VerlabError, ValueError) as exc:
        name = exc.name if isinstance(exc, VerlabError) else "InvalidInput"
        payload = {
            "command": command,
            "inputs": inputs,
            "error": {"name": name, "message": str(exc)},
        }
        click.echo(json.dumps(payload, sort_keys=True))
        sys.exit(1)
    if as_json:
        payload = {
            "command": command,
            "inputs": inputs,
            "result": result,
            "provenance": provenance,
        }
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(f"{command}: {json.dumps(result, sort_keys=True)}")


def format_flag(f: Callable) -> Callable:
    return click.option(
        "--json/--text",
        "as_json",
        default=True,
        help="machine-readable JSON (default) or a human-readable line",
    )(f)


@click.group()
def main() -> None:
    """Exact invariants of modular SL2 and Verlinde-category data."""


# -- char -----------------------------------------------------------------


@main.group()
def char() -> None:
    """SL2 character-ring operations."""


@char.command("weyl")
@click.option("-m", type=int, required=True)
@format_flag
def char_weyl(m: int, as_json: bool) -> None:
    emit(
        lambda: (_render_character(characters.weyl_char(m)), "quantum integer [m+1]_q"),
        as_json,
    )


@char.command("simple")
@click.option("-p", type=int, required=True)
@click.option("-m", type=int, required=True)
@format_flag
def char_simple(p: int, m: int, as_json: bool) -> None:
    emit(
        lambda: (
            _render_character(characters.simple_char(p, m)),
            "Steinberg digit factorization",
        ),
        as_json,
    )


@char.command("tilt")
@click.option("-p", type=int, required=True)
@click.option("-m", type=int, required=True)
@format_flag
def char_tilt(p: int, m: int, as_json: bool) -> None:
    emit(
        lambda: (
            _render_character(tilting.tilting_char(p, m)),
            "tilting character recursion",
        ),
        as_json,
    )


@char.command("mul")
@click.option(
    "--a", required=True, callback=_weight_map_option, help='folded weight map, e.g. {"1": 1}'
)
@click.option("--b", required=True, callback=_weight_map_option)
@format_flag
def char_mul(a: dict, b: dict, as_json: bool) -> None:
    emit(
        lambda: (
            _render_character(_parse_character(a) * _parse_character(b)),
            "Laurent convolution, refolded",
        ),
        as_json,
    )


@char.command("decompose")
@click.option("--char", required=True, callback=_weight_map_option, help="folded weight map")
@click.option(
    "--basis",
    type=click.Choice([b.value for b in characters.Basis]),
    required=True,
)
@click.option("-p", type=int, default=None)
@format_flag
def char_decompose(char: dict, basis: str, p: int | None, as_json: bool) -> None:
    def compute():
        dec = characters.decompose(_parse_character(char), characters.Basis(basis), p)
        return (
            {"terms": {str(m): mult for m, mult in sorted(dec.terms.items())}},
            "greedy unitriangular peeling",
        )

    emit(compute, as_json)


# -- tilt -----------------------------------------------------------------


@main.group("tilt")
def tilt_group() -> None:
    """Tilting tensor-product decompositions."""


@tilt_group.command("fuse-decompose")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@click.option("-b", type=int, required=True)
@format_flag
def tilt_fuse_decompose(p: int, a: int, b: int, as_json: bool) -> None:
    def compute():
        dec = tilting.tensor_decompose_tilt(p, a, b)
        return (
            [{"T": m, "mult": mult} for m, mult in sorted(dec.terms.items())],
            "character decomposition in the tilting basis",
        )

    emit(compute, as_json)


# -- verp -----------------------------------------------------------------


@main.group()
def verp() -> None:
    """Level-p fusion ring operations."""


@verp.command("fuse")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@click.option("-b", type=int, required=True)
@format_flag
def verp_fuse(p: int, a: int, b: int, as_json: bool) -> None:
    def compute():
        el = fusion.fuse(p, a, b)
        return (
            [{"L": i, "mult": m} for i, m in sorted(el.mults.items())],
            "tilting quotient: decompose, drop negligibles",
        )

    emit(compute, as_json)


@verp.command("oracle")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@click.option("-b", type=int, required=True)
@click.option("-c", type=int, required=True)
@format_flag
def verp_oracle(p: int, a: int, b: int, c: int, as_json: bool) -> None:
    emit(
        lambda: (fusion.verlinde_oracle(p, a, b, c), "numeric S-matrix sum"),
        as_json,
    )


@verp.command("fpdim")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@format_flag
def verp_fpdim(p: int, a: int, as_json: bool) -> None:
    emit(
        lambda: (fusion.fpdim(p, a), "Collatz-Wielandt certificate of [a+1]_q"),
        as_json,
    )


@verp.command("gd")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True, help="simple index to iterate")
@click.option("--nmax", type=int, default=40)
@format_flag
def verp_gd(p: int, a: int, nmax: int, as_json: bool) -> None:
    def compute():
        est = fusion.gd_estimate(p, fusion.FusionElement.simple(p, a), nmax)
        return (
            {"roots": est.roots, "final": est.final},
            "exact iterated fusion lengths",
        )

    emit(compute, as_json)


# -- verpn ----------------------------------------------------------------


@main.group("verpn")
def verpn_group() -> None:
    """Level-p^n simple-object calculus."""


@verpn_group.command("digits")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-i", type=int, required=True)
@format_flag
def verpn_digits(p: int, n: int, i: int, as_json: bool) -> None:
    emit(lambda: (list(verpn.steinberg_digits(p, n, i)), "base-p expansion"), as_json)


@verpn_group.command("product")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("--digits", required=True, callback=_int_list_option, help="comma-separated")
@format_flag
def verpn_product(p: int, n: int, digits: list[int], as_json: bool) -> None:
    emit(
        lambda: (
            verpn.steinberg_product(p, n, digits).index,
            "Steinberg tensor product",
        ),
        as_json,
    )


@verpn_group.command("embed")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-i", type=int, required=True)
@format_flag
def verpn_embed(p: int, n: int, i: int, as_json: bool) -> None:
    emit(lambda: (verpn.embed(p, n, i), "index multiplies by p one level up"), as_json)


@verpn_group.command("oddline")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@format_flag
def verpn_oddline(p: int, n: int, as_json: bool) -> None:
    emit(lambda: (verpn.odd_line(p, n), "index p^(n-1)(p-2)"), as_json)


@verpn_group.command("sympower")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("-i", type=int, required=True)
@click.option("-k", type=int, required=True)
@format_flag
def verpn_sympower(p: int, n: int, i: int, k: int, as_json: bool) -> None:
    def compute():
        st = verpn.sym_power_status(p, n, i, k)
        return (
            {
                "status": st.status.value,
                "rule": st.rule,
                "has_unit_summand": st.has_unit_summand,
            },
            "symmetric-power knowledge base",
        )

    emit(compute, as_json)


# -- padic ----------------------------------------------------------------


@main.group("padic")
def padic_group() -> None:
    """F_p series and p-adic dimension arithmetic."""


@padic_group.command("pow")
@click.option("-p", type=int, required=True)
@click.option("--exp", type=int, required=True, help="integer exponent d")
@click.option(
    "--prec",
    type=int,
    default=padic.DEFAULT_TRUNCATION,
    envvar="VERLAB_PREC",
    help="series truncation N",
)
@format_flag
def padic_pow(p: int, exp: int, prec: int, as_json: bool) -> None:
    emit(
        lambda: (
            _render_series(padic.one_minus_t_pow_int(exp, p, prec)),
            "digit product expansion of (1-t)^d",
        ),
        as_json,
    )


@padic_group.command("recover")
@click.option("-p", type=int, required=True)
@click.option(
    "--series", required=True, callback=_int_array_option, help="JSON array of residues"
)
@format_flag
def padic_recover(p: int, series: list[int], as_json: bool) -> None:
    def compute():
        e = padic.dimplus_from_series(padic.FpSeries(p, tuple(series)))
        return (
            {"exponent": _render_padic(e), "dimplus": _render_padic(padic.padic_neg(e))},
            "digit-read recovery with a divisibility certificate per level",
        )

    emit(compute, as_json)


@padic_group.command("finite")
@click.option("--top", type=int, required=True, help="top nonvanishing symmetric power")
@click.option("-p", type=int, default=None)
@format_flag
def padic_finite(top: int, p: int | None, as_json: bool) -> None:
    emit(
        lambda: (
            {"dimplus": padic.dimplus_of_finite_sym(top, p)},
            "finite symmetric algebra rule",
        ),
        as_json,
    )


@padic_group.command("extend")
@click.option("-p", type=int, required=True)
@click.option("--nlen", type=int, required=True)
@click.option("--dimv", type=int, required=True)
@click.option("--dimvdual", type=int, required=True)
@format_flag
def padic_extend(p: int, nlen: int, dimv: int, dimvdual: int, as_json: bool) -> None:
    def compute():
        de, ded = padic.extension_transform(p, nlen, dimv, dimvdual)
        return (
            {"dimplus_e": de, "dimplus_e_dual": ded},
            "extension transform: shift by 1-nlen and by 1",
        )

    emit(compute, as_json)


@padic_group.command("palindrome")
@click.option("-p", type=int, required=True)
@click.option(
    "--series", required=True, callback=_int_array_option, help="JSON array, length d+1"
)
@format_flag
def padic_palindrome(p: int, series: list[int], as_json: bool) -> None:
    emit(
        lambda: (
            padic.frobenius_palindromy_check(p, series, len(series) - 1),
            "twisted palindromy of a finite Hilbert series",
        ),
        as_json,
    )


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
    if provider == "csv":
        if csv_path is None:
            raise click.UsageError("csv provider needs --csv")
        return growth.csv_provider(csv_path)
    raise click.UsageError(f"unknown provider {provider}")


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


@sgd_group.command("estimate")
@_with_provider_options
@format_flag
def sgd_estimate_cmd(
    provider: str, p: int | None, m: int | None, csv_path: str | None, nmax: int, as_json: bool
) -> None:
    def compute():
        est = growth.sgd_estimate(_build_provider(provider, p, m, csv_path), nmax)
        return (
            {
                "samples": [
                    {"n": n, "cumulative": str(s), "estimate": e}
                    for n, s, e in est.samples
                ],
                "final": est.final,
                "classification": est.classification,
                "degree": est.degree,
                "diagnostics": est.diagnostics,
            },
            "tail fit of cumulative symmetric lengths at powers of two",
        )

    emit(compute, as_json)


@sgd_group.command("diagnose")
@_with_provider_options
@click.option("--homdim", type=int, default=None, help="override the provider hom_dim")
@format_flag
def sgd_diagnose_cmd(
    provider: str,
    p: int | None,
    m: int | None,
    csv_path: str | None,
    nmax: int,
    homdim: int | None,
    as_json: bool,
) -> None:
    def compute():
        prov = _build_provider(provider, p, m, csv_path)
        if homdim is not None:
            prov.hom_dim = homdim
        report = growth.mn_diagnostic(prov, nmax)
        return (
            {
                "sgd_estimate": report.estimate.final,
                "classification": report.estimate.classification,
                "hom_dim": report.hom_dim,
                "inequality_ok": report.inequality_ok,
                "equality_verdict": report.equality_verdict,
            },
            "growth estimate vs dim Hom(X, unit)",
        )

    emit(compute, as_json)


if __name__ == "__main__":
    main()
