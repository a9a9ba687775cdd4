"""Usage errors and help of the CLI's flag table.

A malformed command line exits 2 before any work starts, writing
``error: argument <offender>: <reason>`` to stderr and nothing to stdout;
-h and --help exit 0 with the usage on stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinweave
from spinweave import cli

SRC = str(Path(spinweave.__file__).resolve().parent.parent)


@pytest.fixture(autouse=True)
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started despite a usage error")
    for name in ("_verify_signature", "_run_example", "build_rep"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv, offender", [
    ((), "command"),
    (("bogus",), "command"),
    (("verify", "--bogus"), "--bogus"),
    (("verify", "--bogus=1"), "--bogus"),
    (("examples", "sphere", "--samp", "3"), "--samp"),
    (("verify", "--max", "3"), "--max"),
    (("verify", "--sig", "1,1", "--seed"), "--seed"),
    (("examples", "sphere", "--m"), "--m"),
    (("verify", "--format", "yaml"), "--format"),
    (("obstructions", "--format=xml"), "--format"),
    (("build", "--sig", "2,0", "--kind", "spinor"), "--kind"),
    (("examples", "circle"), "name"),
    (("examples", "sphere", "quadric"), "quadric"),
    (("obstructions", "g52"), "g52"),
    (("examples", "sphere", "--m", "x"), "--m"),
    (("verify", "--seed", "1.5"), "--seed"),
    (("verify", "--max-m", "four"), "--max-m"),
    (("examples", "sphere", "--samples", "10k"), "--samples"),
    (("build", "--kind", "dirac"), "--sig"),
    (("build", "--sig", "2,0"), "--kind"),
    (("build", "--sig", "nope", "--kind", "dirac"), "--sig"),
])
def test_usage_error_exits_2_naming_the_offender(capsys, argv, offender):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith("usage: spinweave ")
    assert f"\nerror: argument {offender}: " in err
    assert err.endswith("\n") and err.count("error:") == 1


@pytest.mark.parametrize("argv, reason", [
    (("examples", "circle"), "invalid choice: 'circle'"),
    (("verify", "--format", "yaml"), "invalid choice: 'yaml'"),
    (("build", "--kind", "dirac"), "required"),
    (("verify", "--seed"), "expected one argument"),
    (("verify", "--bogus"), "unrecognized argument"),
])
def test_usage_error_gives_the_reason(capsys, argv, reason):
    with pytest.raises(SystemExit):
        cli.main(list(argv))
    assert capsys.readouterr().err.splitlines()[-1].endswith(f": {reason}")


@pytest.mark.parametrize("argv, usage", [
    (("-h",), "usage: spinweave build --sig K,L --kind {"),
    (("--help",), "usage: spinweave build --sig K,L --kind {"),
    (("verify", "-h"), "usage: spinweave verify [--sig K,L] [--max-m MAX-M]"),
    (("examples", "--m", "3", "--help"), "usage: spinweave examples {sphere,"),
    (("obstructions", "--format", "table", "-h"), "usage: spinweave obstructions [--catalog"),
    (("build", "--help"), "usage: spinweave build --sig K,L"),
])
def test_help_exits_0_with_usage_on_stdout(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert err == ""
    assert out.startswith(usage)
    assert cli.__doc__ in out


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    lines = capsys.readouterr().out.split("\n\n")[0].splitlines()
    commands = [line.replace("usage:", "").split()[1] for line in lines]
    assert commands == ["build", "verify", "obstructions", "examples"]


def test_console_error_has_no_traceback():
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "spinweave.cli", "verify", "--bogus"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert "Traceback" not in done.stderr
    assert done.stderr.endswith("error: argument --bogus: unrecognized argument\n")


def test_usage_error_with_stdout_closed_exits_2():
    # with fd 1 closed the child's sys.stdout is None: the usage error goes to stderr, and the
    # reports or --help, which need stdout, end in one "error: stdout" line
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    for argv, last in [(("verify", "--bogus"), "error: argument --bogus: unrecognized argument\n"),
                       (("verify", "--sig", "2,0"), "error: stdout: closed\n"),
                       (("--help",), "error: stdout: closed\n")]:
        done = subprocess.run([sys.executable, "-m", "spinweave.cli", *argv],
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60,
                              preexec_fn=lambda: os.close(1))
        assert done.returncode == 2, argv
        assert "Traceback" not in done.stderr
        assert done.stderr.endswith(last) and done.stderr.count("error:") == 1
