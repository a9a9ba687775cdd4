"""Byte-identical stdout of the example, verify and build subcommands, JSON and table.

perfbench's golden gate covers the jobs of its workloads only: it never
runs ``examples associated``, runs ``verify`` only at m = 3..6 in JSON,
and it cannot see a changed counterexample or table layout on a path it
does not run.  These digests pin the whole stdout of one small run of
every example, of every example at the size of its largest
bundle-samples job, and of ``verify`` at m = 1, 2, 3 and 7 and over the
m <= 3 sweep, in both formats.  ``build`` is the one subcommand that
prints the restricted Weyl matrices; its digests cover both halves at
2,2, 0,4, 3,3 and 5,5 (m = 10) and the other kinds at one signature each.
``obstructions`` is pinned on the builtin catalog.

The tests call ``main()`` in-process.  One job per example, verify at an
odd and an even m, one build and obstructions, each in both formats, also
run as a fresh ``python -m spinweave.cli`` process with block-buffered
stdout on a pipe, so their output passes through ``cli.run``: its flush,
then ``os._exit``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinweave
from spinweave.cli import main

SRC = str(Path(spinweave.__file__).resolve().parent.parent)

# (argv after "examples", format) -> sha256 of stdout
GOLDEN = {
    (("associated", "--m", "3"), "json"):
        "cd542be36acfd116c1bb197520d0cc660049ce1690e61f85797c99474acad9ef",
    (("associated", "--m", "3"), "table"):
        "c8f981b517672b73a528aada44beaa448ff217e0027aadbd4c28b7eea79370e0",
    (("exterior", "--m", "3"), "json"):
        "72e5686c967fb5677cbbc4eb817b56def47f844c53b18c6adc08d4921b9bd6b7",
    (("exterior", "--m", "3"), "table"):
        "e5433eeea654eb3d11cd9285a6b995f990d7ce22b5558715cbc589d075b8c923",
    (("hermitean", "--m", "2"), "json"):
        "44b296b8c6558287c19bfd663b58a86ec674af1cbc0e0850e1cc8e11e1e616b4",
    (("hermitean", "--m", "2"), "table"):
        "e370f58cf31a124cdd06a36deed5de0d25cb95e49173810a14ff443997b73961",
    (("quadric", "--samples", "5"), "json"):
        "eaec8b645b7182999a7f399fcfc6aebc5d5d1b89364b13829483c4db9aaab4ef",
    (("quadric", "--samples", "5"), "table"):
        "6c771553500d2f0c426120c8b2ad234b7809e40c2c790dc579547467f0773382",
    (("sphere", "--m", "3", "--samples", "5"), "json"):
        "891def618b2626936c31a1385f5b8ea76a83ebc0439c4d83a5202563c2be47a0",
    (("sphere", "--m", "3", "--samples", "5"), "table"):
        "5a0577fa648d946c010a4b9353ed146a51f3e900baeb6961cfe50fbed5fd4496",
    (("projective", "--m", "3", "--samples", "5"), "json"):
        "ff62d8cd9bc88e4fd9a1a60ec1902a59448b2b177df01e5b3e9196b9f5002469",
    (("projective", "--m", "3", "--samples", "5"), "table"):
        "8f1cc64824b619187ed684fdfecc877872a36d39e27843fca99c86ddb02251f3",
    # one job of each example at a size the bundle-samples workload runs
    (("exterior", "--m", "8"), "json"):
        "0599f05888700797bc335fa86c959e4ed1e5c1429f3cba8ebc5541071c416021",
    (("exterior", "--m", "8"), "table"):
        "3ddccacddb87530227bf5e6a50f50a3fb7e30f49b9a7f848b1a45c10bcdfd293",
    (("exterior", "--m", "9"), "json"):
        "7fcb39297958223ef2a9dd091bd1e3ff3c010d2dcd6d2d06f4b7dcd80c500a8c",
    (("exterior", "--m", "9"), "table"):
        "e780b428cc7d1b486a26726dd9b2102087226fbec0f2bf2ae8a0c526d78bc266",
    (("hermitean", "--m", "8", "--samples", "24"), "json"):
        "6af8026886be52c26a305163152bf9abc10adf4492df772d8e639ba0383c4e1e",
    (("hermitean", "--m", "8", "--samples", "24"), "table"):
        "de44395c2f006b0affe5e9eff50904f0f7505dbad48b6c670ef42468b4cdc706",
    (("sphere", "--m", "6", "--samples", "13"), "json"):
        "035fbd6a2e0dca5faaab18155748b1207ad0ffb0f9a73d328de607769ec6b5d3",
    (("sphere", "--m", "6", "--samples", "13"), "table"):
        "91c48111deb1ddaae9207fc2a699df81a22c1f0a28619c2008bd0ad65a3a1071",
    (("projective", "--m", "6", "--samples", "6"), "json"):
        "4177f5dc9dc94daa13b7f8ac730f17874b712d9e3fbfc7be592897f933bf05a6",
    (("projective", "--m", "6", "--samples", "6"), "table"):
        "6533250e2ef93fb8ec4fa4d0b105e5bfe52095a7bfb9052d58014a74810b18d6",
    (("quadric", "--samples", "38"), "json"):
        "eaec8b645b7182999a7f399fcfc6aebc5d5d1b89364b13829483c4db9aaab4ef",
    (("quadric", "--samples", "38"), "table"):
        "6c771553500d2f0c426120c8b2ad234b7809e40c2c790dc579547467f0773382",
}

# (argv after "verify", format) -> sha256 of stdout
VERIFY_GOLDEN = {
    (("--sig", "1,0"), "json"):
        "f3d8ebaa19bf4c3a0dca4f1bf7658f283d77fe1499fb2725dcaad508caf3394b",
    (("--sig", "1,0"), "table"):
        "72234ef4bf19fedb0939a2d26fb3e2f70030646e5e17e78c596dc9371ac17a8a",
    (("--sig", "0,2"), "json"):
        "31b84e00496d360db1743c20b4499545743ce783e218d39c93c1ce2aa9fd8288",
    (("--sig", "0,2"), "table"):
        "b1e923054cc997184db8232388e910819d0948911b31022dbb0ab25368f6282e",
    (("--sig", "2,1"), "json"):
        "aff15deb3c0018f7fbc4f3b82d6ec7c24b456a58748984d505708c2d9e078ccb",
    (("--sig", "2,1"), "table"):
        "7649a8401cf89fd3aee45f4d1350ceb6176654dab181fe4dd2f9b773468297d8",
    (("--sig", "7,0"), "json"):
        "17c4916a5af7e64264e3fe28f927d14b465871e34406bf1490d170f9c1ca951c",
    (("--sig", "7,0"), "table"):
        "14d0bc64ece8864a91be6eaaf68d0898148def4e4b9fe6f3ce07b5297cb3e9cd",
    (("--max-m", "3"), "json"):
        "e895c8e6cb2aadcff3653d7371ca934ec767728e9485623f7e5397080e44c8a8",
    (("--max-m", "3"), "table"):
        "2b45bcc2476bba9575a197f1a3704da28c2923511c0de9b93c72204cad202ab9",
}

# (argv after "build", format) -> sha256 of stdout
BUILD_GOLDEN = {
    (("--sig", "2,2", "--kind", "weyl+"), "json"):
        "7513287f1a9a3dca0591858f893ce12c5acbff044d3b285485206a6400f3468e",
    (("--sig", "2,2", "--kind", "weyl+"), "table"):
        "1d13411aab12da277fe96af882768f53c4cbf783cfb525ea365ead04c48e4ff6",
    (("--sig", "2,2", "--kind", "weyl-"), "json"):
        "b44febaee6b6b731b2575c8929fd70d7da2484259e551e788612566e7f276609",
    (("--sig", "2,2", "--kind", "weyl-"), "table"):
        "45b81407c04fd6c21db50ac3df9e7119bf24d496443ac285c66b8e26ef272348",
    (("--sig", "0,4", "--kind", "weyl+"), "json"):
        "f440a791c2e47a7e20da8b460dca680666274833320f99d913cde436d151ecbd",
    (("--sig", "0,4", "--kind", "weyl+"), "table"):
        "4f07b44963ebd20442a8824fe5167e55c0e8ba013253aac5d56afd0033b097e0",
    (("--sig", "0,4", "--kind", "weyl-"), "json"):
        "23ceb359f3e2a293df3fff9958a9a9733d11c0e3aff00df4b02e5c84740dd549",
    (("--sig", "0,4", "--kind", "weyl-"), "table"):
        "cd982768e995decb99509ac8cb5eb7b03847aa21c7c1d4311e1f583e565f05cf",
    (("--sig", "3,3", "--kind", "weyl+"), "json"):
        "43749038500d4f2924bcb1248e6d4ad944dcd6e01639b5f1f5a5385ba6bc035e",
    (("--sig", "3,3", "--kind", "weyl+"), "table"):
        "92ce1ebb4b50a2315c6cf803ba9276555af0a2b6c24d42a9fec39b33110643e3",
    (("--sig", "3,3", "--kind", "weyl-"), "json"):
        "4d0a39a80e11a263955364cb5f5ce4f17d3e32373583f5b600676ee57e65644f",
    (("--sig", "3,3", "--kind", "weyl-"), "table"):
        "9cb289066de10500a8130af199b642cf0e8c90a54554d203efe20d4b0040dddb",
    (("--sig", "5,5", "--kind", "weyl+"), "json"):
        "ca8b1033ad38c62f8fafc911f9c465167c7b3de7d5460f93b9cd85ad37ff8510",
    (("--sig", "5,5", "--kind", "weyl+"), "table"):
        "2e4b47d4e48bfbf09796fe6d8a548b1b54c6f79409a12c7b79774677afbafbed",
    (("--sig", "5,5", "--kind", "weyl-"), "json"):
        "c458837643ce3185887df6f04ace0de4451d14a87bc6e7a559e8ecdb34bee968",
    (("--sig", "5,5", "--kind", "weyl-"), "table"):
        "b9338ce71ab4b24234b47c11f0edf6a91468ac31025cde21ef027384cf048629",
    (("--sig", "1,3", "--kind", "dirac"), "json"):
        "fb8c8fb7d2adabc2e049f289343852facf2be2b111b77f531ae709574d723f6a",
    (("--sig", "1,3", "--kind", "dirac"), "table"):
        "3c729ce0d34e6cead44f8a69676004e01a17df56b21dc37c69213738b9e0e66a",
    (("--sig", "2,1", "--kind", "cartan"), "json"):
        "544c61c75a15a36c33e7464fae2b0d40a2fb277571b1254e7108ca85a8e7869b",
    (("--sig", "2,1", "--kind", "cartan"), "table"):
        "2ecfacfa6e8b9d6636299bf5608a20bc29d143c553d9c38eacb9352a46673efd",
    (("--sig", "1,2", "--kind", "pauli"), "json"):
        "a4caa90564a7f54b09e7b8f3b04746bc95f621361f14dfb0f826d75bac9c8165",
    (("--sig", "1,2", "--kind", "pauli"), "table"):
        "1ddc8af700d1e9a8a8854e937874a6d62d6d430f6b42fcd9fdd9c1266eeca53d",
}

# (argv after "obstructions", format) -> sha256 of stdout
OBSTRUCTIONS_GOLDEN = {
    ((), "json"): "c9966b1f093c5daa7708da70083a8a66ef69f61cd499f6c43d5126bd56d7f414",
    ((), "table"): "e70d05dc5cc16386c97256919350bda2f87c5c5abf5b2f0c69ce5c83d26e65f0",
}

# the argv (after the subcommand) that also run as a fresh process
FRESH = {
    ("associated", "--m", "3"), ("exterior", "--m", "3"), ("hermitean", "--m", "2"),
    ("quadric", "--samples", "5"), ("sphere", "--m", "3", "--samples", "5"),
    ("projective", "--m", "3", "--samples", "5"),
    ("--sig", "2,1"), ("--sig", "0,2"),
    ("--sig", "1,3", "--kind", "dirac"),
    (),
}


def _cases(golden):
    """Every key of golden in-process, then each in FRESH again as a fresh process."""
    keys = sorted(golden)
    return ([pytest.param(argv, fmt, False, id=f"argv{i}-{fmt}")
             for i, (argv, fmt) in enumerate(keys)]
            + [pytest.param(argv, fmt, True, id=f"argv{i}-{fmt}-fresh")
               for i, (argv, fmt) in enumerate(keys) if argv in FRESH])


def _fresh(argv):
    """Run ``python -m spinweave.cli argv`` with stdout on a pipe, block-buffered."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    for name in ("SPINWEAVE_SEED", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return subprocess.run([sys.executable, "-m", "spinweave.cli", *argv], capture_output=True,
                          env=env, timeout=300)


def _stdout_digest(capsys, monkeypatch, argv, fresh=False):
    if fresh:
        done = _fresh(argv)
        code, out = done.returncode, done.stdout
    else:
        monkeypatch.delenv("SPINWEAVE_SEED", raising=False)
        code = main(argv)
        out = capsys.readouterr().out.encode()
    assert code == 0
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("argv, fmt, fresh", _cases(GOLDEN))
def test_example_stdout_is_unchanged(capsys, monkeypatch, argv, fmt, fresh):
    digest = _stdout_digest(capsys, monkeypatch, ["examples", *argv, "--format", fmt], fresh)
    assert digest == GOLDEN[argv, fmt]


@pytest.mark.parametrize("argv, fmt, fresh", _cases(VERIFY_GOLDEN))
def test_verify_stdout_is_unchanged(capsys, monkeypatch, argv, fmt, fresh):
    digest = _stdout_digest(capsys, monkeypatch, ["verify", *argv, "--format", fmt], fresh)
    assert digest == VERIFY_GOLDEN[argv, fmt]


@pytest.mark.parametrize("argv, fmt, fresh", _cases(BUILD_GOLDEN))
def test_build_stdout_is_unchanged(capsys, monkeypatch, argv, fmt, fresh):
    digest = _stdout_digest(capsys, monkeypatch, ["build", *argv, "--format", fmt], fresh)
    assert digest == BUILD_GOLDEN[argv, fmt]


@pytest.mark.parametrize("argv, fmt, fresh", _cases(OBSTRUCTIONS_GOLDEN))
def test_obstructions_stdout_is_unchanged(capsys, monkeypatch, argv, fmt, fresh):
    digest = _stdout_digest(capsys, monkeypatch, ["obstructions", *argv, "--format", fmt], fresh)
    assert digest == OBSTRUCTIONS_GOLDEN[argv, fmt]


def test_help_stdout_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    done = _fresh(["--help"])
    assert (done.returncode, done.stdout.decode()) == (exc.value.code, capsys.readouterr().out)


def test_out_file_holds_the_stdout_bytes(tmp_path):
    path = tmp_path / "report.json"
    done = _fresh(["verify", "--sig", "2,1", "--out", str(path)])
    assert (done.returncode, done.stdout) == (0, b"")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_GOLDEN[("--sig", "2,1"), "json"]
