"""The table-driven CLI parser against the argparse parser it replaced.

``reference_parser`` is the argparse grammar the CLI used before its flag
table, kept here as the reference.  On every accepted command line the two
must give the same attributes (handlers compared by name); on a malformed
one both must exit 2.  The one argparse behaviour the table drops, prefix
abbreviation of a flag (``--samp`` for ``--samples``), is kept out of the
generated lines and checked on its own.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from spinweave import cli
from spinweave.clifford import Signature
from spinweave.reports import KINDS

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ("sphere", "projective", "quadric", "exterior", "hermitean", "associated")


def _reference_signature(text):
    try:
        k, l = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad signature {text!r}: expected k,l") from exc
    try:
        return Signature(k, l)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinweave",
        description="Exact Clifford algebra, spinor group, and obstruction checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "table"), default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="seed (fallback: config file, SPINWEAVE_SEED, then 1)")
        p.add_argument("--config", default=None,
                       help="JSON config file supplying defaults for seed/samples/max_m/format")

    b = sub.add_parser("build", help="emit a spinor representation")
    b.add_argument("--sig", type=_reference_signature, required=True, metavar="K,L")
    b.add_argument("--kind", choices=KINDS, required=True)
    common(b)
    b.set_defaults(func=cli.cmd_build)

    v = sub.add_parser("verify", help="run structural verification sweeps")
    v.add_argument("--sig", type=_reference_signature, default=None, metavar="K,L")
    v.add_argument("--max-m", type=int, default=None, dest="max_m")
    common(v)
    v.set_defaults(func=cli.cmd_verify)

    o = sub.add_parser("obstructions", help="decide structures over a catalog")
    o.add_argument("--catalog", help="path to a catalog JSON file (default: builtin)")
    o.add_argument("--manifold", help="restrict to a single catalog entry")
    common(o)
    o.set_defaults(func=cli.cmd_obstructions)

    e = sub.add_parser("examples", help="verify a bundle example at sampled points")
    e.add_argument("name", choices=EXAMPLES)
    e.add_argument("--m", type=int, default=2)
    e.add_argument("--samples", type=int, default=None)
    common(e)
    e.set_defaults(func=cli.cmd_examples)
    return parser


def attributes(parser, argv):
    """The parsed attributes, handlers by name, or the exit code of a usage error."""
    try:
        doc = dict(vars(parser.parse_args(list(argv))))
    except SystemExit as exc:
        return exc.code
    doc["func"] = doc["func"].__name__
    return doc


def readme_lines():
    """The argv of every ``spinweave ...`` line in the README's CLI section."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in section.splitlines()
            if line.startswith("spinweave ")]


def perfbench_lines():
    """One argv of each job shape of the benchmark workloads (seed 1)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    shapes = {}
    for name in workloads.WORKLOADS:
        for job in workloads.jobs_for(name, 1):
            argv = ["catalog.json" if a == "{catalog}" else a for a in job.argv]
            shapes.setdefault((argv[0], argv[1], len(argv)), argv)
    return list(shapes.values())


ACCEPTED = [
    # --flag=VALUE
    ["verify", "--sig=3,1", "--seed=9", "--format=table"],
    ["examples", "sphere", "--m=4", "--samples=3"],
    ["build", "--sig=2,0", "--kind=weyl+", "--out=x.json"],
    ["obstructions", "--out="],
    # a repeated flag keeps its last value
    ["verify", "--seed", "3", "--seed", "5"],
    ["examples", "sphere", "--m", "3", "--m=5", "--format", "json", "--format", "table"],
    ["build", "--kind", "dirac", "--sig", "2,0", "--kind", "cartan", "--sig", "3,0"],
    # negative values are values
    ["verify", "--seed", "-4"],
    ["verify", "--max-m", "-1"],
    ["examples", "sphere", "--m", "-5", "--samples", "-1"],
    # the example name anywhere
    ["examples", "--m", "3", "--samples", "2", "sphere"],
    ["examples", "--seed", "2", "quadric", "--samples", "4"],
    ["examples", "--out", "r.json", "--format", "table", "exterior"],
    # every kind and every example
    *[["build", "--sig", "2,2", "--kind", kind] for kind in KINDS],
    *[["examples", name] for name in EXAMPLES],
    ["obstructions", "--catalog", "c.json", "--manifold", "g52", "--config", "cfg.json"],
]

MALFORMED = [
    [],
    ["bogus"],
    ["--seed", "3", "verify"],
    ["verify", "--bogus"],
    ["verify", "--bogus=3"],
    ["verify", "extra"],
    ["obstructions", "g52"],
    ["examples"],
    ["examples", "sphere", "projective"],
    ["examples", "circle"],
    ["examples", "sphere", "--m"],
    ["examples", "sphere", "--m", "x"],
    ["examples", "sphere", "--m", "2.5"],
    ["examples", "sphere", "--samples", "--seed", "3"],
    ["verify", "--seed"],
    ["verify", "--seed", "x"],
    ["verify", "--seed=x"],
    ["verify", "--max-m", "x"],
    ["verify", "--sig", "nope"],
    ["verify", "--sig", "0,0"],
    ["verify", "--sig", "-1,2"],  # "-1,2" is not a negative number, so no value
    ["verify", "--sig=-1,2"],
    ["verify", "--format", "yaml"],
    ["verify", "--format=yaml"],
    ["verify", "--format", "json", "--format", "yaml"],
    ["verify", "--seed", "x", "--seed", "3"],
    ["build"],
    ["build", "--sig", "2,0"],
    ["build", "--kind", "dirac"],
    ["build", "--sig", "2,0", "--kind", "spinor"],
    ["build", "--sig", "--kind", "dirac"],
    ["verify", "-x"],
    ["examples", "-5"],
]


@pytest.mark.parametrize("argv", readme_lines() + perfbench_lines() + ACCEPTED, ids=" ".join)
def test_accepted_lines_parse_alike(argv):
    expected = attributes(reference_parser(), argv)
    assert isinstance(expected, dict), f"the reference rejects {argv}"
    assert attributes(cli.make_parser(), argv) == expected


def test_every_line_source_is_read():
    # the README has its seven CLI lines, the benchmark three job shapes
    assert len(readme_lines()) >= 7
    assert {argv[0] for argv in perfbench_lines()} == {"verify", "examples", "obstructions"}


@pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv) or "empty")
def test_malformed_lines_exit_2_in_both(capsys, argv):
    assert attributes(reference_parser(), argv) == 2
    assert attributes(cli.make_parser(), argv) == 2


@pytest.mark.parametrize("argv", [
    ["examples", "sphere", "--samp", "3"],
    ["verify", "--max", "3"],
    ["verify", "--m", "3"],
    ["obstructions", "--man=g52"],
])
def test_abbreviations_are_dropped(capsys, argv):
    assert isinstance(attributes(reference_parser(), argv), dict)
    assert attributes(cli.make_parser(), argv) == 2
    flag = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
    assert f"error: argument {flag}: " in capsys.readouterr().err


FLAGS = ("--sig", "--kind", "--max-m", "--catalog", "--manifold", "--m", "--samples",
         "--out", "--format", "--seed", "--config")
VALUES = ("3", "-4", "0", "2,1", "-1,2", "x", "json", "table", "dirac", "sphere", "quadric")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(("build", "verify", "obstructions", "examples", "bogus")))
    tokens = draw(st.lists(st.one_of(
        st.sampled_from(FLAGS + VALUES),
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map("=".join),
    ), max_size=8))
    return [command, *tokens]


# the flags of each subcommand, its own and the common ones
OWN_FLAGS = {"build": ("--sig", "--kind"), "verify": ("--sig", "--max-m"),
             "obstructions": ("--catalog", "--manifold"), "examples": ("--m", "--samples")}
COMMON_FLAGS = ("--out", "--format", "--seed", "--config", "--help")


def _abbreviates(argv):
    """Whether a flag of argv is a strict prefix of another flag of its subcommand."""
    known = OWN_FLAGS.get(argv[0], ()) + COMMON_FLAGS
    flags = {token.split("=")[0] for token in argv[1:] if token.startswith("--")}
    return any(flag not in known and any(k.startswith(flag) for k in known) for flag in flags)


@given(command_lines())
def test_generated_lines_parse_alike(argv):
    assume(not _abbreviates(argv))
    # both parsers write usage errors to stderr; only the outcome counts
    with contextlib.redirect_stderr(io.StringIO()):
        assert attributes(cli.make_parser(), argv) == attributes(reference_parser(), argv)
