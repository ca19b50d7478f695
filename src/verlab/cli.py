"""Command-line front door: every operation, machine-readable output.

JSON is the default output format; ``--text`` renders small human-readable
tables.  Domain errors exit 1 with a machine-readable error object, usage
errors exit 2.  The truncation for series commands defaults to 64 and can
be overridden by ``--prec`` or the VERLAB_PREC environment variable.
"""
from __future__ import annotations

import json
import os
import sys
from typing import Any, Callable

import click

from . import characters, fusion, growth, padic, tilting, verpn
from .errors import VerlabError


def default_truncation() -> int:
    return int(os.environ.get("VERLAB_PREC", padic.DEFAULT_TRUNCATION))


def _render_character(c: characters.Character) -> dict:
    return {"weights": {str(w): k for w, k in sorted(c.coeffs.items())}}


def _parse_character(text: str) -> characters.Character:
    data = json.loads(text)
    if isinstance(data, dict) and "weights" in data:
        data = data["weights"]
    return characters.Character({int(w): int(k) for w, k in data.items()})


def _render_padic(d: padic.PadicDigits) -> dict:
    return {
        "p": d.p,
        "digits": list(d.digits),
        "precision": d.precision,
        "signed_int": d.to_signed_int(),
    }


def _render_series(s: padic.FpSeries) -> dict:
    return {"p": s.p, "coeffs": list(s.coeffs), "truncation": s.truncation}


def emit(
    command: str,
    inputs: dict,
    compute: Callable[[], tuple[Any, str]],
    as_json: bool,
    text_render: Callable[[Any], str] | None = None,
) -> None:
    """Run a command body and print a stable payload; exit 1 on domain error."""
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
        text = text_render(result) if text_render else json.dumps(result, sort_keys=True)
        click.echo(f"{command}: {text}")


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
        "char.weyl",
        {"m": m},
        lambda: (_render_character(characters.weyl_char(m)), "quantum integer [m+1]_q"),
        as_json,
    )


@char.command("simple")
@click.option("-p", type=int, required=True)
@click.option("-m", type=int, required=True)
@format_flag
def char_simple(p: int, m: int, as_json: bool) -> None:
    emit(
        "char.simple",
        {"p": p, "m": m},
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
        "char.tilt",
        {"p": p, "m": m},
        lambda: (
            _render_character(tilting.tilting_char(p, m)),
            "tilting character recursion",
        ),
        as_json,
    )


@char.command("mul")
@click.option("--a", "a_text", required=True, help='folded weight map, e.g. {"1": 1}')
@click.option("--b", "b_text", required=True)
@format_flag
def char_mul(a_text: str, b_text: str, as_json: bool) -> None:
    emit(
        "char.mul",
        {"a": json.loads(a_text), "b": json.loads(b_text)},
        lambda: (
            _render_character(_parse_character(a_text) * _parse_character(b_text)),
            "Laurent convolution, refolded",
        ),
        as_json,
    )


@char.command("decompose")
@click.option("--char", "char_text", required=True, help="folded weight map")
@click.option(
    "--basis",
    type=click.Choice([b.value for b in characters.Basis]),
    required=True,
)
@click.option("-p", type=int, default=None)
@format_flag
def char_decompose(char_text: str, basis: str, p: int | None, as_json: bool) -> None:
    def compute():
        dec = characters.decompose(
            _parse_character(char_text), characters.Basis(basis), p
        )
        return (
            {"terms": {str(m): mult for m, mult in sorted(dec.terms.items())}},
            "greedy unitriangular peeling",
        )

    emit("char.decompose", {"char": json.loads(char_text), "basis": basis, "p": p}, compute, as_json)


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

    emit("tilt.fuse-decompose", {"p": p, "a": a, "b": b}, compute, as_json)


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

    emit("verp.fuse", {"p": p, "a": a, "b": b}, compute, as_json)


@verp.command("oracle")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@click.option("-b", type=int, required=True)
@click.option("-c", type=int, required=True)
@format_flag
def verp_oracle(p: int, a: int, b: int, c: int, as_json: bool) -> None:
    emit(
        "verp.oracle",
        {"p": p, "a": a, "b": b, "c": c},
        lambda: (fusion.verlinde_oracle(p, a, b, c), "numeric S-matrix sum"),
        as_json,
    )


@verp.command("fpdim")
@click.option("-p", type=int, required=True)
@click.option("-a", type=int, required=True)
@format_flag
def verp_fpdim(p: int, a: int, as_json: bool) -> None:
    emit(
        "verp.fpdim",
        {"p": p, "a": a},
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

    emit("verp.gd", {"p": p, "a": a, "nmax": nmax}, compute, as_json)


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
    emit(
        "verpn.digits",
        {"p": p, "n": n, "i": i},
        lambda: (list(verpn.steinberg_digits(p, n, i)), "base-p expansion"),
        as_json,
    )


@verpn_group.command("product")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("--digits", "digits_text", required=True, help="comma-separated")
@format_flag
def verpn_product(p: int, n: int, digits_text: str, as_json: bool) -> None:
    digits = [int(x) for x in digits_text.split(",")]
    emit(
        "verpn.product",
        {"p": p, "n": n, "digits": digits},
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
    emit(
        "verpn.embed",
        {"p": p, "n": n, "i": i},
        lambda: (verpn.embed(p, n, i), "index multiplies by p one level up"),
        as_json,
    )


@verpn_group.command("oddline")
@click.option("-p", type=int, required=True)
@click.option("-n", type=int, required=True)
@format_flag
def verpn_oddline(p: int, n: int, as_json: bool) -> None:
    emit(
        "verpn.oddline",
        {"p": p, "n": n},
        lambda: (verpn.odd_line(p, n), "index p^(n-1)(p-2)"),
        as_json,
    )


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

    emit("verpn.sympower", {"p": p, "n": n, "i": i, "k": k}, compute, as_json)


# -- padic ----------------------------------------------------------------


@main.group("padic")
def padic_group() -> None:
    """F_p series and p-adic dimension arithmetic."""


@padic_group.command("pow")
@click.option("-p", type=int, required=True)
@click.option("--exp", "exponent", type=int, required=True, help="integer exponent d")
@click.option("--prec", type=int, default=None, help="series truncation N")
@format_flag
def padic_pow(p: int, exponent: int, prec: int | None, as_json: bool) -> None:
    n = prec if prec is not None else default_truncation()
    emit(
        "padic.pow",
        {"p": p, "exp": exponent, "prec": n},
        lambda: (
            _render_series(padic.one_minus_t_pow_int(exponent, p, n)),
            "digit product expansion of (1-t)^d",
        ),
        as_json,
    )


@padic_group.command("recover")
@click.option("-p", type=int, required=True)
@click.option("--series", "series_text", required=True, help="JSON array of residues")
@format_flag
def padic_recover(p: int, series_text: str, as_json: bool) -> None:
    coeffs = json.loads(series_text)

    def compute():
        e = padic.dimplus_from_series(padic.FpSeries(p, tuple(coeffs)))
        return (
            {"exponent": _render_padic(e), "dimplus": _render_padic(padic.padic_neg(e))},
            "digit-read recovery with a divisibility certificate per level",
        )

    emit("padic.recover", {"p": p, "series": coeffs}, compute, as_json)


@padic_group.command("finite")
@click.option("--top", type=int, required=True, help="top nonvanishing symmetric power")
@click.option("-p", type=int, default=None)
@format_flag
def padic_finite(top: int, p: int | None, as_json: bool) -> None:
    emit(
        "padic.finite",
        {"top": top, "p": p},
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

    emit(
        "padic.extend",
        {"p": p, "nlen": nlen, "dimv": dimv, "dimvdual": dimvdual},
        compute,
        as_json,
    )


@padic_group.command("palindrome")
@click.option("-p", type=int, required=True)
@click.option("--series", "series_text", required=True, help="JSON array, length d+1")
@format_flag
def padic_palindrome(p: int, series_text: str, as_json: bool) -> None:
    coeffs = json.loads(series_text)
    emit(
        "padic.palindrome",
        {"p": p, "series": coeffs},
        lambda: (
            padic.frobenius_palindromy_check(p, coeffs, len(coeffs) - 1),
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
    click.option("--csv", "csv_path", type=str, default=None),
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
    prov = _build_provider(provider, p, m, csv_path)

    def compute():
        est = growth.sgd_estimate(prov, nmax)
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

    emit(
        "sgd.estimate",
        {"provider": prov.name, "nmax": nmax},
        compute,
        as_json,
    )


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
    prov = _build_provider(provider, p, m, csv_path)
    if homdim is not None:
        prov.hom_dim = homdim

    def compute():
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

    emit(
        "sgd.diagnose",
        {"provider": prov.name, "nmax": nmax, "homdim": prov.hom_dim},
        compute,
        as_json,
    )


if __name__ == "__main__":
    main()
