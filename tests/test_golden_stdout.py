"""Byte-identical stdout of the example subcommands, JSON and table.

perfbench's golden gate covers the jobs of its workloads only: it never
runs ``examples associated``, and it cannot see a changed counterexample
or table layout on a path it does not run.  These digests pin the whole
stdout of one small run of every example in both formats.
"""

import hashlib

import pytest

from spinweave.cli import main

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
}


@pytest.mark.parametrize("argv, fmt", sorted(GOLDEN))
def test_example_stdout_is_unchanged(capsys, monkeypatch, argv, fmt):
    monkeypatch.delenv("SPINWEAVE_SEED", raising=False)
    code = main(["examples", *argv, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv, fmt]
