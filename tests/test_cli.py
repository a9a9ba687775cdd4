import json

import pytest

from spinweave.charclass import builtin_catalog, dump_catalog
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

    def test_catalog_without_manifolds_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1}')
        code, _, err = run(capsys, "obstructions", "--catalog", str(path))
        assert code == 2
        assert "manifolds" in err

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

    def test_nonpositive_samples_rejected(self, capsys):
        code, _, err = run(capsys, "examples", "sphere", "--m", "2", "--samples", "0")
        assert code == 2
        assert "positive" in err

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
