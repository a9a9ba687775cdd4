"""Each CLI subcommand loads only the layers it runs; the package root is lazy.

Every check runs in a fresh interpreter, since the test session has long
since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinweave

SRC = str(Path(spinweave.__file__).resolve().parent.parent)
LAYERS = ("scalars", "linalg", "clifford", "reps", "groups", "bundles",
          "charclass", "reports", "cli")

# Prints the spinweave modules loaded by importing the CLI and building its
# parser, and those added by running main on the remaining arguments.
LOADED = """
import contextlib, io, json, sys
import spinweave.cli as cli
cli.make_parser()
before = {m for m in sys.modules if m.startswith("spinweave")}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
after = {m for m in sys.modules if m.startswith("spinweave")}
print(json.dumps({"code": code, "parser": sorted(before), "added": sorted(after - before)}))
"""


def fresh(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env.pop("SPINWEAVE_SEED", None)
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded(*argv: str) -> dict:
    doc = json.loads(fresh("-c", LOADED, *argv).splitlines()[-1])
    assert doc["code"] == 0
    return doc


def test_parser_loads_no_algebra_layer():
    doc = loaded("obstructions")
    assert doc["parser"] == ["spinweave", "spinweave.cli", "spinweave.reports"]


def test_parser_loads_no_dataclasses():
    code = "import sys, spinweave.cli as c; c.make_parser(); print('dataclasses' in sys.modules)"
    assert fresh("-c", code).strip() == "False"


# Runs main on the remaining arguments, then prints which of the modules
# behind ``dataclasses`` the process has loaded.
HEAVY = """
import contextlib, io, json, sys
import spinweave.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "heavy": [m for m in ("dataclasses", "inspect") if m in sys.modules]}))
"""


@pytest.mark.parametrize("argv", [
    ("verify", "--sig", "3,0"),
    ("examples", "sphere"),
    ("examples", "associated"),
    ("obstructions",),
    ("build", "--sig", "2,0", "--kind", "dirac"),
])
def test_subcommand_loads_no_dataclasses_or_inspect(argv):
    doc = json.loads(fresh("-c", HEAVY, *argv).splitlines()[-1])
    assert doc == {"code": 0, "heavy": []}


# Runs main on the remaining arguments, then prints which of fractions and
# decimal (which fractions imports) the process has loaded.
NUMERIC = """
import contextlib, io, json, sys
import spinweave.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [m for m in ("fractions", "decimal") if m in sys.modules]}))
"""


def test_verify_loads_no_fractions_or_decimal():
    # scalars builds a Fraction only when one is asked for (.a to .d, JSON)
    doc = json.loads(fresh("-c", NUMERIC, "verify", "--sig", "2,1").splitlines()[-1])
    assert doc == {"code": 0, "loaded": []}


@pytest.mark.parametrize("argv", [
    ("sphere", "--m", "3", "--samples", "3"),
    ("projective", "--m", "3", "--samples", "3"),
    ("quadric", "--samples", "3"),
    ("exterior", "--m", "3"),
    ("hermitean", "--m", "4", "--samples", "3"),
    ("associated", "--m", "3"),
], ids=lambda argv: argv[0])
def test_examples_load_no_fractions_or_decimal(argv):
    # bundles builds Fractions only for the public sample records, which no
    # check reads: the checks run on integer forms
    doc = json.loads(fresh("-c", NUMERIC, "examples", *argv).splitlines()[-1])
    assert doc == {"code": 0, "loaded": []}


# Runs main on the remaining arguments after building the parser, then prints
# which of argparse and the modules behind its messages the process has loaded.
PARSER_MODULES = """
import contextlib, io, json, sys
import spinweave.cli as cli
cli.make_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [m for m in ("argparse", "gettext", "locale")
                                           if m in sys.modules]}))
"""


@pytest.mark.parametrize("argv", [
    ("verify", "--sig", "3,0"),
    ("examples", "sphere", "--m", "3", "--samples", "2"),
    ("obstructions", "--format", "table"),
    ("build", "--sig", "2,0", "--kind", "dirac"),
], ids=lambda argv: argv[0])
def test_parser_and_subcommands_load_no_argparse_gettext_or_locale(argv):
    doc = json.loads(fresh("-c", PARSER_MODULES, *argv).splitlines()[-1])
    assert doc == {"code": 0, "loaded": []}


def test_layers_load_no_dataclasses_or_inspect():
    code = ("import sys, spinweave.cli, spinweave.groups, spinweave.bundles, spinweave.charclass;"
            " print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert fresh("-c", code).strip() == "[]"


def test_obstructions_adds_only_charclass():
    assert loaded("obstructions")["added"] == ["spinweave.charclass"]


def test_verify_skips_charclass_and_bundles():
    added = loaded("verify", "--sig", "3,0")["added"]
    assert "spinweave.groups" in added
    assert "spinweave.charclass" not in added
    assert "spinweave.bundles" not in added


def test_examples_skip_charclass_and_groups():
    added = loaded("examples", "sphere", "--m", "3", "--samples", "2")["added"]
    assert "spinweave.bundles" in added
    assert "spinweave.charclass" not in added
    assert "spinweave.groups" not in added


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_imports_on_its_own(layer):
    fresh("-c", f"import spinweave.{layer}")


def test_star_import_binds_the_defining_objects():
    # every layer holding a public name must hold the very object * binds
    code = """
import importlib, json, sys, spinweave
ns = {}
exec("from spinweave import *", ns)
from spinweave import cli  # a submodule, imported past the lazy names
layers = [importlib.import_module("spinweave." + name) for name in sys.argv[1:]]
bad = [name for name in spinweave.__all__
       if {id(getattr(m, name)) for m in layers if hasattr(m, name)} != {id(ns[name])}]
print(json.dumps({"bad": bad, "undir": sorted(set(spinweave.__all__) - set(dir(spinweave))),
                  "cli": cli.__name__}))
"""
    doc = json.loads(fresh("-c", code, *LAYERS))
    assert doc == {"bad": [], "undir": [], "cli": "spinweave.cli"}


def test_build_as_main_module():
    out = fresh("-m", "spinweave.cli", "build", "--sig", "2,0", "--kind", "dirac")
    assert json.loads(out)["kind"] == "dirac"
