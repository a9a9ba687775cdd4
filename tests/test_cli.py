import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinweave import cli
from spinweave.charclass import builtin_catalog, dump_catalog
from spinweave.clifford import Signature
from spinweave.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_cartan_3_0(self, capsys):
        code, out, _ = run(capsys, "build", "--sig", "3,0", "--kind", "cartan")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["dim"] == 4
        assert len(doc["images"]) == 3

    def test_dirac_2_0(self, capsys):
        code, out, _ = run(capsys, "build", "--sig", "2,0", "--kind", "dirac")
        assert code == 0
        assert json.loads(out)["dim"] == 2

    def test_parity_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--sig", "2,0", "--kind", "pauli")
        assert code == 2
        assert "error" in err

    def test_bad_signature_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "build", "--sig", "nope", "--kind", "dirac")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--sig=0,0", "--sig=-1,2"])
    def test_invalid_signature_names_the_reason(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "k and l must be non-negative with k + l >= 1" in err
        assert "expected k,l" not in err

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "build", "--sig", "2,0", "--kind", "dirac",
                           "--format", "table")
        assert code == 0
        assert "generator" in out


class TestVerify:
    def test_single_signature(self, capsys):
        code, out, _ = run(capsys, "verify", "--sig", "1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert all(r["status"] == "pass" for r in doc["reports"])

    def test_sweep_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-m", "2")
        assert code == 0
        assert json.loads(out)["reports"]

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-m", "0")
        assert code == 0
        assert json.loads(out)["reports"] == []

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--sig", "3,0", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "--sig", "3,0", "--seed", "7")
        assert out1 == out2

    @pytest.mark.parametrize("kl", [(8, 0), (4, 4)])
    def test_every_check_passes_beyond_the_sweep(self, kl):
        # perfbench's verify-sweep stops at m = 6; these run the generator
        # certificates at m = 8 on both a definite and a mixed signature
        reports = cli._verify_signature(Signature(*kl), 1)
        assert reports and [r.check_name for r in reports if not r.ok] == []


OVER_M = cli.MAX_M + 1  # the first m that the CLI rejects


class TestLimits:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite an over-limit value")
        for name in ("_verify_signature", "_run_example", "build_rep"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("verify", "--sig", f"{OVER_M - OVER_M // 2},{OVER_M // 2}"), "--sig"),
            (("verify", "--max-m", str(OVER_M)), "--max-m"),
            (("verify", "--max-m", "-1"), "--max-m"),
            (("build", "--sig", f"0,{OVER_M}", "--kind", "dirac"), "--sig"),
            (("examples", "exterior", "--m", str(OVER_M)), "--m"),
            (("examples", "sphere", "--samples", "10001"), "--samples"),
        ],
    )
    def test_over_limit_exits_2_naming_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: {flag} " in err

    def test_config_max_m_over_limit(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_m": OVER_M}))
        code, _, err = run(capsys, "verify", "--config", str(config))
        assert code == 2
        assert err == (f"error: bad config file: key 'max_m' must be at most {cli.MAX_M}, "
                       f"got {OVER_M}\n")

    @pytest.mark.parametrize(
        "key, value, argv, message",
        [
            ("max_m", -1, ("verify",), "must not be negative, got -1"),
            ("samples", 10001, ("examples", "sphere"), "must be at most 10000, got 10001"),
        ],
    )
    def test_config_value_outside_limits_names_key(self, capsys, tmp_path, key, value, argv,
                                                   message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: bad config file: key {key!r} {message}\n"

    def test_limits_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_verify_signature", lambda sig, seed: [])
        monkeypatch.setattr(cli, "_run_example", lambda name, m, samples, seed: [])
        assert run(capsys, "verify", "--sig", f"{cli.MAX_M},0")[0] == 0
        assert run(capsys, "verify", "--max-m", str(cli.MAX_M))[0] == 0
        assert run(capsys, "examples", "exterior", "--m", str(cli.MAX_M), "--samples",
                   "10000")[0] == 0


class TestObstructions:
    def test_g52_row(self, capsys):
        code, out, _ = run(capsys, "obstructions", "--manifold", "g52")
        assert code == 0
        row = json.loads(out)["obstructions"][0]
        assert row["spin"] is False
        assert row["pin+"] is False
        assert row["pin-"] is False
        assert row["spin_c"] is False
        assert row["pin_c"] is False
        assert row["lpin"] is False

    def test_g52_circle_product_lpin_witness(self, capsys):
        code, out, _ = run(capsys, "obstructions", "--manifold", "g52xS1")
        assert code == 0
        row = json.loads(out)["obstructions"][0]
        assert row["lpin"] == "T:gamma"

    def test_s3_all_true(self, capsys):
        code, out, _ = run(capsys, "obstructions", "--manifold", "s3")
        row = json.loads(out)["obstructions"][0]
        assert code == 0
        assert row["spin"] and row["pin+"] and row["pin-"] and row["spin_c"] and row["pin_c"]

    def test_rp3_spin(self, capsys):
        code, out, _ = run(capsys, "obstructions", "--manifold", "rp3")
        assert json.loads(out)["obstructions"][0]["spin"] is True

    def test_catalog_file(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(dump_catalog(builtin_catalog()[:3]))
        code, out, _ = run(capsys, "obstructions", "--catalog", str(path))
        assert code == 0
        assert len(json.loads(out)["obstructions"]) == 3

    def test_malformed_catalog_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "manifolds": [{"name": "x"}]}')
        code, _, err = run(capsys, "obstructions", "--catalog", str(path))
        assert code == 2
        assert "x" in err

    def test_wrong_vector_length_exits_2(self, capsys, tmp_path):
        doc = json.loads(dump_catalog(builtin_catalog()[1:2]))  # s2: b1 = 0, b2 = 1
        doc["manifolds"][0]["h1"] = ["t1", "t2"]
        doc["manifolds"][0]["sq"] = {"t1": [0], "t2": [0]}
        doc["manifolds"][0]["tangent"]["w1"] = [1, 0, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "obstructions", "--catalog", str(path))
        assert code == 2
        assert out == ""
        assert "'s2'" in err and "tangent.w1" in err

    def test_unliftable_square_exits_2(self, capsys, tmp_path):
        doc = json.loads(dump_catalog(builtin_catalog()[1:2]))  # s2: b1 = 0, b2 = 1
        doc["manifolds"][0].update(h1=["t"], sq={"t": [1]}, liftable2=[],
                                   tangent={"w1": [0], "w2": [0]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "obstructions", "--catalog", str(path))
        assert code == 2
        assert out == ""
        assert "'s2'" in err and "'sq.t'" in err

    def test_large_b1_record_loads(self, capsys, tmp_path):
        b1 = 40
        h1 = [f"x{i + 1}" for i in range(b1)]
        record = {
            "name": "big", "dim": 5, "h1": h1, "h2": ["a", "b"],
            "sq": {x: [1 - i % 2, 0] for i, x in enumerate(h1)},
            "tangent": {"w1": [1, 1] + [0] * (b1 - 2), "w2": [1, 0]},
            "liftable2": [[1, 0]],
            "bundles": [{"name": "E", "rank": 2, "w1": [0] * b1, "w2": [0, 1]}],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"schema": 1, "manifolds": [record]}))
        code, out, _ = run(capsys, "obstructions", "--catalog", str(path))
        assert code == 0
        assert json.loads(out)["obstructions"] == [{
            "manifold": "big", "dim": 5, "orientable": False, "spin": False,
            "pin+": False, "pin-": True, "spin_c": False, "pin_c": True,
            "lpin": "T:trivial-rank-2",
        }]

    def test_catalog_without_manifolds_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1}')
        code, _, err = run(capsys, "obstructions", "--catalog", str(path))
        assert code == 2
        assert "manifolds" in err

    def test_non_json_catalog_exits_2_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not json")
        code, out, err = run(capsys, "obstructions", "--catalog", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --catalog {path}: Expecting value")

    def test_directory_catalog_exits_2_naming_it(self, capsys, tmp_path):
        code, out, err = run(capsys, "obstructions", "--catalog", str(tmp_path))
        assert (code, out, err) == (2, "", f"error: --catalog {tmp_path}: Is a directory\n")

    def test_deeply_nested_catalog_exits_2_naming_the_file(self, capsys, tmp_path):
        # deeper than any recursion limit of the JSON decoder
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "obstructions", "--catalog", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --catalog {path}: maximum recursion depth exceeded")

    def test_unknown_manifold_exits_2(self, capsys):
        code, _, err = run(capsys, "obstructions", "--manifold", "nowhere")
        assert code == 2

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "obstructions", "--format", "table")
        assert code == 0
        assert "manifold" in out and "g52" in out


class TestExamples:
    def test_sphere(self, capsys):
        code, out, _ = run(capsys, "examples", "sphere", "--m", "2", "--samples", "10")
        assert code == 0
        assert all(r["status"] == "pass" for r in json.loads(out)["reports"])

    def test_projective(self, capsys):
        code, _, _ = run(capsys, "examples", "projective", "--m", "3", "--samples", "5")
        assert code == 0

    def test_quadric(self, capsys):
        code, _, _ = run(capsys, "examples", "quadric", "--samples", "5")
        assert code == 0

    def test_exterior(self, capsys):
        code, _, _ = run(capsys, "examples", "exterior", "--m", "3")
        assert code == 0

    def test_hermitean(self, capsys):
        code, _, _ = run(capsys, "examples", "hermitean", "--m", "4", "--samples", "5")
        assert code == 0

    def test_associated(self, capsys):
        code, _, _ = run(capsys, "examples", "associated", "--m", "2")
        assert code == 0

    def test_zero_dimension_rejected(self, capsys):
        code, _, err = run(capsys, "examples", "sphere", "--m", "0")
        assert code == 2
        assert "error" in err

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINWEAVE_SEED", "42")
        code1, out1, _ = run(capsys, "examples", "sphere", "--m", "2", "--samples", "5")
        monkeypatch.setenv("SPINWEAVE_SEED", "42")
        code2, out2, _ = run(capsys, "examples", "sphere", "--m", "2", "--samples", "5")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "examples", "sphere", "--m", "1", "--samples", "3",
                           "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["schema"] == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9, "samples": 4, "format": "table"}))
        code, out, _ = run(capsys, "examples", "sphere", "--m", "2",
                           "--config", str(config))
        assert code == 0
        assert "check_name" in out  # table format came from the config

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "table", "samples": 4}))
        code, out, _ = run(capsys, "examples", "sphere", "--m", "2", "--samples", "3",
                           "--config", str(config), "--format", "json")
        assert code == 0
        json.loads(out)

    def test_bad_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{broken")
        code, _, err = run(capsys, "verify", "--sig", "1,0", "--config", str(config))
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize("data, message", [
        (b'\xff\xfe{"seed": 3}', "codec can't decode byte 0xff"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["not-utf8", "deeply-nested"])
    def test_undecodable_config_exits_2(self, capsys, tmp_path, data, message):
        config = tmp_path / "config.json"
        config.write_bytes(data)
        code, out, err = run(capsys, "verify", "--sig", "1,0", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad config file: ") and message in err

    def test_nonpositive_samples_rejected(self, capsys):
        code, _, err = run(capsys, "examples", "sphere", "--m", "2", "--samples", "0")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("examples", "sphere", "--seed", "0"), "--seed must be a positive integer, got 0"),
            (("verify", "--sig", "1,0", "--seed", "-4"),
             "--seed must be a positive integer, got -4"),
            (("examples", "sphere", "--samples", "0"), "--samples must be positive, got 0"),
            (("examples", "quadric", "--samples", "-1"), "--samples must be positive, got -1"),
        ],
    )
    def test_nonpositive_flag_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "key, argv",
        [("seed", ("verify", "--sig", "1,0")), ("samples", ("examples", "sphere"))],
    )
    def test_nonpositive_config_key_is_named(self, capsys, tmp_path, key, argv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 0}))
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: bad config file: key {key!r} must be positive, got 0\n"

    @pytest.mark.parametrize(
        "key, value, argv",
        [
            ("seed", "x", ("verify", "--sig", "1,0")),
            ("samples", 2.5, ("examples", "sphere", "--m", "2")),
            ("max_m", "4", ("verify",)),
            ("format", "yaml", ("verify", "--sig", "1,0")),
        ],
    )
    def test_config_value_types_checked(self, capsys, tmp_path, key, value, argv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 2
        assert out == ""
        assert repr(key) in err

    def test_config_max_m_zero_is_empty_range(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_m": 0}))
        code, _, _ = run(capsys, "verify", "--config", str(config))
        assert code == 0


class TestExampleDimension:
    """examples --m is checked per example before any work starts."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite a bad --m")
        monkeypatch.setattr(cli, "_run_example", refuse)

    @pytest.mark.parametrize(
        "name", ["sphere", "projective", "quadric", "exterior", "hermitean", "associated"]
    )
    @pytest.mark.parametrize("m", ["0", "-5"])
    def test_nonpositive_m_rejected_for_every_example(self, capsys, name, m):
        code, out, err = run(capsys, "examples", name, "--m", m, "--samples", "2")
        assert code == 2
        assert out == ""
        assert "error: --m must be at least 1" in err

    @pytest.mark.parametrize("m", ["1", "3", "7"])
    def test_odd_m_rejected_for_hermitean(self, capsys, m):
        code, out, err = run(capsys, "examples", "hermitean", "--m", m, "--samples", "2")
        assert code == 2
        assert out == ""
        assert "error: --m must be even for hermitean" in err

    @pytest.mark.parametrize("m", ["1", "3", "4"])
    def test_quadric_takes_only_m_2(self, capsys, m):
        code, out, err = run(capsys, "examples", "quadric", "--m", m, "--samples", "2")
        assert code == 2
        assert out == ""
        assert "error: --m must be 2 for quadric" in err

    def test_accepted_values_still_run(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_example", lambda name, m, samples, seed: [])
        assert run(capsys, "examples", "quadric", "--samples", "2")[0] == 0
        assert run(capsys, "examples", "quadric", "--m", "2", "--samples", "2")[0] == 0
        assert run(capsys, "examples", "hermitean", "--m", "6", "--samples", "2")[0] == 0


class TestSeedEnv:
    """SPINWEAVE_SEED is checked like --seed, before any work starts."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started despite a bad SPINWEAVE_SEED")
        for name in ("_verify_signature", "_run_example"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    @pytest.mark.parametrize(
        "argv", [("verify", "--sig", "1,0"), ("examples", "sphere", "--m", "2", "--samples", "2")]
    )
    def test_bad_env_seed_exits_2(self, capsys, monkeypatch, value, argv):
        monkeypatch.setenv("SPINWEAVE_SEED", value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: SPINWEAVE_SEED ")

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINWEAVE_SEED", "abc")
        monkeypatch.setattr(cli, "_verify_signature", lambda sig, seed: [])
        assert run(capsys, "verify", "--sig", "1,0", "--seed", "3")[0] == 0


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ("obstructions",),
            ("build", "--sig", "2,0", "--kind", "dirac"),
            ("verify", "--sig", "1,0"),
            ("examples", "sphere", "--m", "2", "--samples", "2"),
        ],
    )
    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_exits_2_naming_out(self, capsys, tmp_path, argv, target):
        path = tmp_path / target
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --out {path}: ")

    # PYTHONUNBUFFERED set: the write itself fails; unset: the flush after it, which
    # cli._write_stdout makes for the reports and for --help alike
    @pytest.mark.parametrize("argv, unbuffered", [
        (("verify", "--sig", "2,0"), True),
        (("verify", "--sig", "2,0"), False),
        (("--help",), False),
        (("--help",), True),
    ])
    def test_unwritable_stdout_exits_2(self, argv, unbuffered):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "spinweave.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        # one message, no traceback
        assert (done.returncode, done.stderr) == (2, "error: stdout: No space left on device\n")
