import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verlab
from verlab.cli import main, run

SRC_DIR = str(Path(verlab.__file__).resolve().parents[1])
MISSING_CSV = str(Path(SRC_DIR) / "no-such-lengths.csv")


@pytest.fixture(scope="module")
def schema():
    path = resources.files("verlab.data").joinpath("cli_schema.json")
    return json.loads(path.read_text())


class Run(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def capture(entry):
    """Call ``entry()`` in this process and capture its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entry()
            code = 0
        except SystemExit as exc:
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue())


def invoke(*args):
    """Run ``main(args)`` in this process, which leaves the collector as it was."""
    collector = gc.get_freeze_count(), gc.isenabled()
    res = capture(lambda: main(list(args)))
    assert (gc.get_freeze_count(), gc.isenabled()) == collector
    return res


def payload(result):
    return json.loads(result.stdout)


def run_process(*args, timeout=10, **env):
    """Run the CLI in a fresh interpreter; a hang fails the test at ``timeout``.

    Keyword arguments are extra environment variables.
    """
    env = {**os.environ, "PYTHONPATH": SRC_DIR, **env}
    return subprocess.run(
        [sys.executable, "-m", "verlab.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestFuseCommand:
    def test_documented_example(self):
        res = invoke("verp", "fuse", "-p", "5", "-a", "1", "-b", "3", "--json")
        assert res.exit_code == 0
        assert payload(res)["result"] == [{"L": 2, "mult": 1}]

    def test_text_mode(self):
        res = invoke("verp", "fuse", "-p", "5", "-a", "1", "-b", "3", "--text")
        assert res.exit_code == 0
        assert res.stdout == 'verp.fuse: [{"L": 2, "mult": 1}]\n'


class TestOracleCommand:
    """The exact Verlinde count answers at once where a sum over p terms could not."""

    @pytest.mark.parametrize("c, result", [("1", 1), ("1000002", 0)])
    def test_answers_at_large_p(self, c, result, schema):
        res = run_process("verp", "oracle", "-p", "1000003", "-a", "500000", "-b", "500001",
                          "-c", c)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert out["result"] == result

    def test_output_index_past_p_minus_one_exit_1(self, schema):
        res = run_process("verp", "oracle", "-p", "1000003", "-a", "500000", "-b", "500001",
                          "-c", "1000003")
        assert res.returncode == 1, res.stderr
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert out["error"]["name"] == "IndexOutOfRange"


class TestFpdimCommand:
    """The L_1-row certificate costs p - 1 small rows whatever a is."""

    def test_answers_at_p1009(self, schema):
        res = run_process("verp", "fpdim", "-p", "1009", "-a", "500")
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert abs(out["result"] - math.sin(501 * math.pi / 1009) / math.sin(math.pi / 1009)) < 1e-12


class TestPadicCommands:
    def test_finite(self):
        res = invoke("padic", "finite", "--top", "2")
        assert res.exit_code == 0
        assert payload(res)["result"] == {"dimplus": -2}

    def test_finite_huge_top_answers_at_once(self):
        res = run_process("padic", "finite", "--top", str(10**12), "-p", "2")
        assert res.returncode == 0
        assert "Traceback" not in res.stdout + res.stderr
        assert json.loads(res.stdout)["result"] == {"dimplus": -(10**12)}

    def test_extend_ver8(self):
        res = invoke(
            "padic", "extend", "-p", "2", "--nlen", "4", "--dimv", "-2",
            "--dimvdual", "-2",
        )
        assert res.exit_code == 0
        assert payload(res)["result"] == {"dimplus_e": -5, "dimplus_e_dual": -1}

    def test_pow_and_recover_roundtrip(self):
        res = invoke("padic", "pow", "-p", "2", "--exp", "-6", "--prec", "31")
        coeffs = payload(res)["result"]["coeffs"]
        res2 = invoke("padic", "recover", "-p", "2", "--series", json.dumps(coeffs))
        out = payload(res2)["result"]
        assert out["exponent"]["signed_int"] == -6
        assert out["dimplus"]["signed_int"] == 6

    def test_prec_env_override(self, monkeypatch):
        monkeypatch.setenv("VERLAB_PREC", "10")
        res = invoke("padic", "pow", "-p", "2", "--exp", "1")
        assert payload(res)["result"]["truncation"] == 10

    def test_prec_default(self, monkeypatch):
        monkeypatch.delenv("VERLAB_PREC", raising=False)
        res = invoke("padic", "pow", "-p", "2", "--exp", "3")
        out = payload(res)
        assert out["inputs"]["prec"] == 64
        assert out["result"]["truncation"] == 64

    def test_recover_at_truncation_zero(self, schema):
        # [1] is what `padic pow --prec 0` prints for every exponent
        res = invoke("padic", "recover", "-p", "2", "--series", "[1]")
        assert res.exit_code == 0
        out = payload(res)
        jsonschema.validate(out, schema)
        assert out["result"]["exponent"]["precision"] == 0
        assert out["result"]["dimplus"]["precision"] == 0

    @pytest.mark.parametrize("prec", ["-1", "-5"])
    def test_negative_prec_exit_1(self, prec, schema):
        res = run_process("padic", "pow", "-p", "3", "--exp", "2", "--prec", prec)
        assert res.returncode == 1
        assert "Traceback" not in res.stdout + res.stderr
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert out["error"]["name"] == "InvalidInput"


class TestErrors:
    def test_domain_error_exit_1(self):
        res = invoke("verp", "fuse", "-p", "5", "-a", "9", "-b", "0")
        assert res.exit_code == 1
        err = payload(res)["error"]
        assert err["name"] == "IndexOutOfRange"

    def test_usage_error_exit_2(self):
        res = invoke("verp", "fuse", "-p", "5")
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ("char", "decompose", "--char", '{"2": 1}', "--basis", "simple"),
        ("char", "decompose", "--char", '{"2": 1}', "--basis", "tilting"),
        ("sgd", "estimate", "--provider", "sl2_sym", "--nmax", "16"),
    ])
    def test_missing_p_usage_error_exit_2(self, args):
        res = invoke(*args)
        assert res.exit_code == 2
        assert "needs -p" in res.stderr

    @pytest.mark.parametrize("args", [
        ("char", "simple", "-p", "1", "-m", "5"),
        ("char", "simple", "-p", "0", "-m", "5"),
        ("padic", "pow", "-p", "1", "--exp", "3"),
        ("padic", "pow", "-p", "0", "--exp", "3"),
        ("char", "tilt", "-p", "1", "-m", "3"),
        ("char", "tilt", "-p", "0", "-m", "3"),
        ("padic", "recover", "-p", "0", "--series", "[1,1]"),
        ("verpn", "oddline", "-p", "1", "-n", "2"),
        ("padic", "extend", "-p", "1", "--nlen", "4", "--dimv", "1", "--dimvdual", "1"),
        ("padic", "extend", "-p", "0", "--nlen", "4", "--dimv", "1", "--dimvdual", "1"),
        ("padic", "palindrome", "-p", "0", "--series", "[1]"),
    ])
    def test_prime_below_two_exit_1(self, args, schema):
        res = run_process(*args)
        assert res.returncode == 1
        assert "Traceback" not in res.stdout + res.stderr
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert out["error"]["name"] == "InvalidInput"

    @pytest.mark.parametrize("args", [
        ("char", "simple", "-p", "4", "-m", "5"),
        ("verp", "fuse", "-p", "4", "-a", "1", "-b", "1"),
        ("padic", "pow", "-p", "4", "--exp", "3"),
        ("sgd", "estimate", "--provider", "sl2_sym", "-p", "4", "--nmax", "64"),
        ("verpn", "oddline", "-p", "9", "-n", "1"),
        ("verp", "fpdim", "-p", "6", "-a", "1"),
        ("char", "simple", "-p", str(10**30), "-m", "5"),
    ])
    def test_composite_p_exit_1(self, args, schema):
        res = run_process(*args)
        assert res.returncode == 1
        assert "Traceback" not in res.stdout + res.stderr
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert out["error"]["name"] == "InvalidInput"

    @pytest.mark.parametrize("args, env", [
        (("char", "mul", "--a", "{bad", "--b", "{}"), {}),
        (("char", "mul", "--a", "[1]", "--b", "{}"), {}),
        (("char", "decompose", "--char", "notjson", "--basis", "weyl"), {}),
        (("padic", "recover", "-p", "2", "--series", '"x"'), {}),
        (("padic", "palindrome", "-p", "3", "--series", '{"a":1}'), {}),
        (("verpn", "product", "-p", "3", "-n", "2", "--digits", "1,x"), {}),
        (("sgd", "estimate", "--provider", "csv", "--csv", MISSING_CSV, "--nmax", "16"), {}),
        (("padic", "pow", "-p", "2", "--exp", "3"), {"VERLAB_PREC": "abc"}),
        (("sgd", "estimate", "--provider", "csv", "--csv", SRC_DIR, "--nmax", "16"), {}),
    ])
    def test_malformed_input_exit_2(self, args, env):
        res = run_process(*args, **env)
        assert res.returncode == 2
        assert "Traceback" not in res.stdout + res.stderr
        assert "error: argument --" in res.stderr

    def test_palindrome_empty_series_exit_1(self, schema):
        res = run_process("padic", "palindrome", "-p", "3", "--series", "[]")
        assert res.returncode == 1
        assert "Traceback" not in res.stdout + res.stderr
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert out["error"]["name"] == "InvalidInput"
        assert out["inputs"] == {"p": 3, "series": []}

    def test_help_exit_0(self):
        res = invoke("--help")
        assert res.exit_code == 0
        assert res.stdout.startswith("usage: verlab [-h] COMMAND ...")


class TestDispatch:
    @pytest.mark.parametrize("args", [(), ("verp",), ("nosuch",), ("verp", "nosuch")])
    def test_no_command_exit_2(self, args):
        res = invoke(*args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("usage: verlab")

    @pytest.mark.parametrize("args, listed", [
        (("--help",), {"char", "tilt", "verp", "verpn", "padic", "sgd"}),
        (("verp", "--help"), {"fuse", "oracle", "fpdim", "gd"}),
        (("verp", "fuse", "--help"), {"-p", "-a", "-b", "--json", "--text"}),
    ])
    def test_help_lists_the_next_words(self, args, listed):
        res = invoke(*args)
        assert res.exit_code == 0
        assert res.stderr == ""
        first_words = {line.split()[0] for line in res.stdout.splitlines() if line.strip()}
        assert listed <= first_words

    def test_no_prefix_abbreviations(self):
        res = invoke("padic", "pow", "-p", "2", "--exp", "3", "--pre", "10")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "unrecognized arguments: --pre 10" in res.stderr

    @pytest.mark.parametrize("args, error", [
        (("char", "simple", "-p", "-3", "-m", "2"), "InvalidInput"),
        (("verpn", "product", "-p", "3", "-n", "2", "--digits", "-1,2"), "DigitOutOfRange"),
    ])
    def test_value_with_leading_dash_is_a_value(self, args, error, schema):
        res = invoke(*args)
        assert res.exit_code == 1
        out = payload(res)
        jsonschema.validate(out, schema)
        assert out["error"]["name"] == error

    @pytest.mark.parametrize("flags, as_json", [
        (("--text", "--json"), True),
        (("--json", "--text"), False),
    ])
    def test_last_format_flag_wins(self, flags, as_json):
        res = invoke("verp", "fuse", "-p", "5", "-a", "1", "-b", "3", *flags)
        assert res.exit_code == 0
        assert res.stdout.startswith("{") is as_json


class TestProcessEntry:
    """``run``, the process entry: ``main``'s answers, then a frozen heap."""

    @pytest.mark.parametrize("args, exit_code", [
        (("verp", "fuse", "-p", "5", "-a", "1", "-b", "3"), 0),
        (("char", "simple", "-p", "4", "-m", "5"), 1),
        (("char", "weyl"), 2),
        (("verp", "fuse", "--help"), 0),
    ])
    def test_run_answers_as_main_does(self, args, exit_code, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["verlab", *args])
        try:
            by_run = capture(run)
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert by_run == invoke(*args)
        assert by_run.exit_code == exit_code

    def test_console_script_is_run(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.strip() == 'verlab = "verlab.cli:run"'

    def test_large_answer_to_a_reader_that_leaves(self):
        argv = [sys.executable, "-m", "verlab.cli", "char", "tilt", "-p", "3", "-m", "200000"]
        env = {**os.environ, "PYTHONPATH": SRC_DIR}
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            first = proc.stdout.read(1)
            proc.stdout.close()
            try:
                exit_code = proc.wait(timeout=10)
            finally:
                proc.kill()
            stderr = proc.stderr.read()
        assert first == b"{"
        assert (exit_code, stderr) == (1, b"")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("args", [
        ("verp", "fuse", "-p", "5", "-a", "1", "-b", "3"),
        ("char", "simple", "-p", "4", "-m", "5"),
    ])
    def test_small_answer_to_a_closed_pipe(self, args, unbuffered):
        """Buffered, the answer fails at the final flush; unbuffered, in ``print``."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONUNBUFFERED": unbuffered}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "verlab.cli", *args],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=10,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestCharCommands:
    @pytest.mark.parametrize("a, b", [
        ({"1": 1}, {"2": 1, "0": 1}),
        ({"weights": {"1": 1}}, {"weights": {"2": 1, "0": 1}}),
    ])
    def test_mul_echoes_decoded_maps(self, a, b):
        res = invoke("char", "mul", "--a", json.dumps(a), "--b", json.dumps(b))
        assert res.exit_code == 0
        out = payload(res)
        assert out["command"] == "char.mul"
        assert out["inputs"] == {"a": a, "b": b}
        assert out["result"] == {"weights": {"1": 2, "3": 1}}


class TestSchemaAndDeterminism:
    COMMANDS = [
        ["char", "weyl", "-m", "3"],
        ["char", "simple", "-p", "2", "-m", "3"],
        ["char", "tilt", "-p", "3", "-m", "5"],
        ["char", "mul", "--a", '{"1": 1}', "--b", '{"2": 1, "0": 1}'],
        ["char", "decompose", "--char", '{"2": 1, "0": 2}', "--basis", "weyl"],
        ["tilt", "fuse-decompose", "-p", "3", "-a", "1", "-b", "1"],
        ["verp", "fuse", "-p", "7", "-a", "2", "-b", "2"],
        ["verp", "oracle", "-p", "5", "-a", "1", "-b", "3", "-c", "2"],
        ["verp", "fpdim", "-p", "5", "-a", "1"],
        ["verp", "gd", "-p", "5", "-a", "1", "--nmax", "10"],
        ["verpn", "digits", "-p", "3", "-n", "2", "-i", "5"],
        ["verpn", "product", "-p", "3", "-n", "2", "--digits", "1,2"],
        ["verpn", "embed", "-p", "3", "-n", "1", "-i", "1"],
        ["verpn", "oddline", "-p", "3", "-n", "2"],
        ["verpn", "sympower", "-p", "3", "-n", "2", "-i", "4", "-k", "2"],
        ["padic", "pow", "-p", "3", "--exp", "-1", "--prec", "8"],
        ["padic", "finite", "--top", "2"],
        ["padic", "extend", "-p", "2", "--nlen", "4", "--dimv", "-2", "--dimvdual", "-2"],
        ["padic", "palindrome", "-p", "3", "--series", "[1, 1, 1]"],
        ["sgd", "estimate", "--provider", "binomial", "--m", "2", "--nmax", "256"],
        ["sgd", "diagnose", "--provider", "constant", "--nmax", "256"],
        ["verp", "fuse", "-p", "5", "-a", "9", "-b", "0"],  # error payload
    ]

    def test_payloads_validate(self, schema):
        for args in self.COMMANDS:
            res = invoke(*args)
            jsonschema.validate(payload(res), schema)

    def test_byte_identical_reruns(self):
        for args in self.COMMANDS:
            assert invoke(*args) == invoke(*args)


class TestSgdCommands:
    def test_estimate(self):
        res = invoke("sgd", "estimate", "--provider", "binomial", "--m", "3",
                     "--nmax", "4096")
        out = payload(res)["result"]
        assert out["classification"] == "polynomial"
        assert abs(out["final"] - 3.0) < 0.1

    def test_sl2_sym_default_nmax_under_one_second(self):
        start = time.perf_counter()
        res = run_process("sgd", "estimate", "--provider", "sl2_sym", "-p", "3")
        elapsed = time.perf_counter() - start
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["inputs"]["nmax"] == 2**14
        assert out["result"]["classification"] == "polynomial"
        assert elapsed < 1.0

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_binomial_m_below_one_exit_1(self, m, schema):
        res = invoke("sgd", "estimate", "--provider", "binomial", "--m", m, "--nmax", "64")
        assert res.exit_code == 1
        out = payload(res)
        jsonschema.validate(out, schema)
        assert out["error"]["name"] == "InvalidInput"
        assert f"m={m}" in out["error"]["message"]

    def test_negative_homdim_exit_2(self):
        res = invoke("sgd", "diagnose", "--provider", "constant", "--homdim", "-3",
                     "--nmax", "64")
        assert res.exit_code == 2
        assert "argument --homdim" in res.stderr

    @pytest.mark.parametrize("args", [
        ("--provider", "binomial", "--m", "3", "--nmax", str(10**8)),
        ("--provider", "sl2_sym", "-p", "2", "--nmax", str(2**64)),
        ("--provider", "constant", "--nmax", str(2**64)),
    ])
    def test_closed_form_huge_nmax_answers_at_once(self, args, schema):
        res = run_process("sgd", "estimate", *args)
        assert res.returncode == 0
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert out["result"]["classification"] == "polynomial"

    @pytest.mark.parametrize("provider", [
        ("--provider", "binomial", "--m", "3"),
        ("--provider", "sl2_sym", "-p", "2"),
        ("--provider", "constant"),
    ])
    def test_closed_form_nmax_past_float_range(self, provider, schema):
        # samples past 2^1024 do not fit a float; the growth ratio divides 1 by
        # n as ints, so they must not raise OverflowError
        res = run_process("sgd", "estimate", *provider, "--nmax", str(2**1100))
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        jsonschema.validate(out, schema)
        assert out["result"]["classification"] == "polynomial"

    def test_diagnose_missing_provider_arg(self):
        res = invoke("sgd", "estimate", "--provider", "binomial")
        assert res.exit_code == 2

    @pytest.mark.parametrize("text, missing", [
        ("a,b\n1,2\n", "'n' column"),
        ("n,width\n1,2\n", "'length' column"),
        ("n,length\n1\n", "invalid literal"),
    ])
    def test_malformed_csv_exit_1(self, tmp_path, schema, text, missing):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        res = invoke("sgd", "estimate", "--provider", "csv", "--csv", str(path),
                     "--nmax", "16")
        assert res.exit_code == 1
        out = payload(res)
        jsonschema.validate(out, schema)
        assert out["error"]["name"] == "InvalidInput"
        assert missing in out["error"]["message"]

    def test_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("n,length\n" + "\n".join(f"{n},1" for n in range(300)))
        res = invoke("sgd", "estimate", "--provider", "csv", "--csv", str(path),
                     "--nmax", "256")
        assert payload(res)["result"]["classification"] == "polynomial"


# -- every command group under bounded random inputs --------------------------

P = st.integers(-2, 40)
INDEX = st.integers(-1, 12)
WEIGHT = st.integers(-2, 200)
LEVEL = st.integers(-1, 4)
NMAX = st.integers(-2, 256)
WEIGHT_MAP = st.dictionaries(WEIGHT.map(str), st.integers(-3, 3), max_size=4).map(json.dumps)
SERIES = st.lists(st.integers(-5, 5), max_size=12).map(json.dumps)
DIGITS = st.lists(st.integers(-1, 40), min_size=1, max_size=4).map(
    lambda ds: ",".join(map(str, ds))
)
PROVIDER = st.sampled_from(["binomial", "partitions", "sl2_sym", "constant", "csv"])


def argv(words, *options):
    """Strategy for ``words`` then each (flag, strategy) option; None leaves it out."""
    values = st.tuples(*(strategy for _, strategy in options))
    return values.map(lambda vals: words.split() + [
        word
        for (flag, _), v in zip(options, vals)
        if v is not None
        for word in (flag, str(v))
    ])


CLI_CALLS = st.one_of(
    argv("char weyl", ("-m", WEIGHT)),
    argv("char simple", ("-p", P), ("-m", WEIGHT)),
    argv("char tilt", ("-p", P), ("-m", WEIGHT)),
    argv("char mul", ("--a", WEIGHT_MAP), ("--b", WEIGHT_MAP)),
    argv("char decompose", ("--char", WEIGHT_MAP),
         ("--basis", st.sampled_from(["weyl", "simple", "tilting"])), ("-p", st.none() | P)),
    argv("tilt fuse-decompose", ("-p", P), ("-a", WEIGHT), ("-b", WEIGHT)),
    argv("verp fuse", ("-p", P), ("-a", INDEX), ("-b", INDEX)),
    argv("verp oracle", ("-p", P), ("-a", INDEX), ("-b", INDEX), ("-c", INDEX)),
    argv("verp fpdim", ("-p", P), ("-a", INDEX)),
    argv("verp gd", ("-p", P), ("-a", INDEX), ("--nmax", NMAX)),
    argv("verpn digits", ("-p", P), ("-n", LEVEL), ("-i", WEIGHT)),
    argv("verpn product", ("-p", P), ("-n", LEVEL), ("--digits", DIGITS)),
    argv("verpn embed", ("-p", P), ("-n", LEVEL), ("-i", WEIGHT)),
    argv("verpn oddline", ("-p", P), ("-n", LEVEL)),
    argv("verpn sympower", ("-p", P), ("-n", LEVEL), ("-i", WEIGHT), ("-k", WEIGHT)),
    argv("padic pow", ("-p", P), ("--exp", st.integers(-10**6, 10**6)),
         ("--prec", st.integers(-2, 200))),
    argv("padic recover", ("-p", P), ("--series", SERIES)),
    argv("padic finite", ("--top", WEIGHT), ("-p", st.none() | P)),
    argv("padic extend", ("-p", P),
         ("--nlen", st.integers(-2, 10**6) | st.sampled_from([2, 3, 4, 8, 9, 25])),
         ("--dimv", WEIGHT), ("--dimvdual", WEIGHT)),
    argv("padic palindrome", ("-p", P), ("--series", SERIES)),
    argv("sgd estimate", ("--provider", PROVIDER), ("-p", st.none() | P),
         ("--m", st.none() | st.integers(-2, 8)), ("--nmax", NMAX)),
    argv("sgd diagnose", ("--provider", PROVIDER), ("-p", st.none() | P),
         ("--m", st.none() | st.integers(-2, 8)), ("--nmax", NMAX),
         ("--homdim", st.none() | st.integers(-2, 8))),
)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, n))


@settings(max_examples=400, deadline=None)
@given(args=CLI_CALLS)
def test_every_command_answers_or_reports(schema, args):
    """Exit 0 with a result, exit 1 with the error envelope, or exit 2; never
    an uncaught exception, and never an answer for a non-prime p."""
    res = invoke(*args)
    assert res.exit_code in (0, 1, 2), res
    if res.exit_code == 2:
        return
    out = json.loads(res.stdout)
    jsonschema.validate(out, schema)
    assert ("result" if res.exit_code == 0 else "error") in out
    if res.exit_code == 0 and "-p" in args:
        assert is_prime(int(args[args.index("-p") + 1])), args
    if res.exit_code == 0 and args[:2] == ["padic", "pow"]:
        assert out["result"]["truncation"] == int(args[args.index("--prec") + 1]), args
