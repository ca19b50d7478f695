"""Each layer runs on first use: a fresh process runs only the layers it calls."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import verlab

SRC_DIR = str(Path(verlab.__file__).resolve().parents[1])
LAYERS = ("errors", "characters", "tilting", "verpn", "fusion", "padic", "growth")

# Printed last by each script: the layers whose code has run.  A lazy layer
# is a subclass of ModuleType until it runs; reading its type does not run it.
RAN = """
import json, sys, types
ran = [n for n in LAYERS if type(sys.modules["verlab." + n]) is types.ModuleType]
print(json.dumps(ran))
"""

CLI_THEN_REPORT = """
import runpy
try:
    runpy.run_module("verlab.cli", run_name="__main__")
except SystemExit:
    pass
""" + RAN

# Runs the CLI and binds ``new`` to the modules that the run imported.
CLI_IMPORTS = """
import json, runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("verlab.cli", run_name="__main__")
except SystemExit:
    pass
new = set(sys.modules) - before
"""

# Printed last: every module the CLI run imported that is neither in the
# standard library nor part of verlab.
CLI_THEN_REPORT_IMPORTS = CLI_IMPORTS + """
top = {name.partition(".")[0] for name in new}
print(json.dumps(sorted(top - set(sys.stdlib_module_names) - {"verlab"})))
"""

# Printed last: the costly standard-library modules the CLI run imported.
# ``dataclasses`` pulls in ``inspect``, and with it ``ast``, ``dis`` and
# ``tokenize``; records are NamedTuples and __slots__ classes instead.
CLI_THEN_REPORT_HEAVY_IMPORTS = CLI_IMPORTS + """
print(json.dumps(sorted(new & {"dataclasses", "inspect"})))
"""

PACKAGE_CONTRACT = """
import sys
import verlab
assert all("verlab." + n in sys.modules for n in LAYERS)
""" + RAN + """
for name in verlab.__all__:
    obj = getattr(verlab, name)
    assert obj.__module__.startswith("verlab."), name
    assert obj is getattr(sys.modules[obj.__module__], name), name
star = {}
exec("from verlab import *", star)
assert all(star[name] is getattr(verlab, name) for name in verlab.__all__)
try:
    verlab.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("verlab.no_such_name resolved")
print("ok")
"""


def run_script(script, *args, src=SRC_DIR):
    """Run ``script`` with ``args`` in a fresh interpreter that has LAYERS bound.

    ``verlab`` is imported from the directory ``src``.
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("VERLAB_PREC", None)
    return subprocess.run(
        [sys.executable, "-c", f"LAYERS = {LAYERS!r}\n{script}", *args],
        capture_output=True, text=True, env=env, timeout=30,
    )


@pytest.mark.parametrize("command, layers", [
    ("char weyl -m 3", {"errors", "characters"}),
    ("verpn oddline -p 3 -n 2", {"errors", "verpn"}),
    ("padic pow -p 3 --exp 2", {"errors", "padic"}),
    ("sgd estimate --provider constant --nmax 16", {"errors", "growth"}),
    ("verp fuse -p 5 -a 1 -b 3", {"errors", "characters", "tilting", "fusion"}),
    ("verp fuse -p x -a 1 -b 1", {"errors"}),
    ("tilt fuse-decompose -p 5 -a 3 -b 3", {"errors", "characters", "tilting"}),
    ("verpn sympower -p 3 -n 2 -i 4 -k 2", {"errors", "verpn"}),
    ("padic recover -p 2 --series [1,1]", {"errors", "padic"}),
    ("sgd estimate --provider sl2_sym -p 3 --nmax 64", {"errors", "growth"}),
    ("verp gd -p 7 -a 1 --nmax 12", {"errors", "characters", "tilting", "fusion"}),
    # the S-matrix oracle is an exact count in fusion itself, and an index
    # error stops before any product: neither runs the character ring or
    # the tilting quotient
    ("verp oracle -p 5 -a 1 -b 3 -c 2", {"errors", "fusion"}),
    ("verp fuse -p 5 -a 9 -b 1", {"errors", "fusion"}),
    ("verp fpdim -p 7 -a 9", {"errors", "fusion"}),
])
def test_cli_command_runs_only_its_layers(command, layers):
    res = run_script(CLI_THEN_REPORT, *command.split())
    assert set(json.loads(res.stdout.splitlines()[-1])) == layers, res.stderr


@pytest.mark.parametrize("command", [
    "verp fuse -p 5 -a 1 -b 3",
    "verp fuse -p 5 -a 9 -b 1",
    "verp fuse -p x -a 1 -b 1",
])
def test_cli_imports_only_the_standard_library(command):
    res = run_script(CLI_THEN_REPORT_IMPORTS, *command.split())
    assert json.loads(res.stdout.splitlines()[-1]) == [], res.stderr


@pytest.mark.parametrize("command", [
    "verp fuse -p 5 -a 1 -b 3",
    "padic recover -p 2 --series [1,1]",
    "sgd estimate --provider constant --nmax 16",
    "verpn sympower -p 3 -n 2 -i 4 -k 2",
])
def test_cli_imports_neither_dataclasses_nor_inspect(command):
    res = run_script(CLI_THEN_REPORT_HEAVY_IMPORTS, *command.split())
    assert json.loads(res.stdout.splitlines()[-1]) == [], res.stderr


# Printed last: whether the CLI run imported ``csv``, which only the CSV
# provider reads with.
CLI_THEN_REPORT_CSV = CLI_IMPORTS + """
print(json.dumps("csv" in new))
"""


def test_cli_constant_provider_imports_no_csv():
    res = run_script(CLI_THEN_REPORT_CSV, *"sgd estimate --provider constant --nmax 16".split())
    assert json.loads(res.stdout.splitlines()[-1]) is False, res.stderr


def test_max_index_runs_only_errors():
    res = run_script("import verlab\nassert verlab.max_index(3, 1) == 1\n" + RAN)
    assert json.loads(res.stdout.splitlines()[-1]) == ["errors"], res.stderr


def test_package_contract():
    res = run_script(PACKAGE_CONTRACT)
    assert res.returncode == 0, res.stderr
    ran, ok = res.stdout.splitlines()
    assert json.loads(ran) == [] and ok == "ok"


# Commands that use no symmetric-power fact: they run without the fact file.
NO_FACT_COMMANDS = (
    "verp fuse -p 5 -a 1 -b 3",
    "verp fpdim -p 5 -a 1",
    "verp gd -p 7 -a 1 --nmax 12",
    "tilt fuse-decompose -p 5 -a 3 -b 3",
    "padic pow -p 3 --exp 2",
    "sgd estimate --provider sl2_sym -p 3 --nmax 64",
    "char tilt -p 3 -m 5",
    "verpn oddline -p 3 -n 2",
)

# Printed last: the error that the first symmetric-power query raises
# after a fusion product has run.
FUSE_THEN_SYM_POWER = """
import verlab
verlab.fuse(5, 1, 3)
try:
    verlab.sym_power_status(3, 1, 1, 2)
except (FileNotFoundError, AttributeError) as exc:
    print(type(exc).__name__)
"""


# Printed last: the errors of two symmetric-power queries in one process.
SYM_POWER_TWICE = """
import verlab
for _ in range(2):
    try:
        verlab.sym_power_status(3, 1, 1, 2)
    except (FileNotFoundError, AttributeError) as exc:
        print(type(exc).__name__)
"""


@pytest.fixture(scope="module")
def without_facts(tmp_path_factory):
    """A copy of the package without ``data/sym_power_facts.json``."""
    root = tmp_path_factory.mktemp("no_facts")
    shutil.copytree(
        Path(SRC_DIR) / "verlab", root / "verlab",
        ignore=shutil.ignore_patterns("sym_power_facts.json", "__pycache__"),
    )
    return root


@pytest.mark.parametrize("command", NO_FACT_COMMANDS)
def test_command_runs_without_the_fact_file(without_facts, command):
    intact = run_script(CLI_THEN_REPORT, *command.split())
    res = run_script(CLI_THEN_REPORT, *command.split(), src=without_facts)
    assert (res.returncode, intact.returncode) == (0, 0), res.stderr
    assert res.stdout == intact.stdout


def test_missing_fact_file_surfaces_on_first_use(without_facts):
    # no layer that fusion runs reads the knowledge base, so the first
    # symmetric-power query is what runs verpn and meets the missing file
    res = run_script(FUSE_THEN_SYM_POWER, src=without_facts)
    assert res.stdout.split() == ["FileNotFoundError"], res.stderr


def test_missing_fact_file_surfaces_on_every_query(without_facts):
    # the file is read at a query, not when verpn runs, so a failed read
    # leaves the layer whole and a retry meets the same missing file
    res = run_script(SYM_POWER_TWICE, src=without_facts)
    assert res.stdout.split() == ["FileNotFoundError"] * 2, res.stderr
