import json

import pytest

from spinweave import cli
from spinweave.charclass import builtin_catalog, dump_catalog
from spinweave.clifford import CliffordElement, Signature
from spinweave.cli import main
from spinweave.linalg import ExactMatrix
from spinweave.reps import SpinSpace, spin_space


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


class TestAlphaIsGammaConjugation:
    SIG = Signature(7, 0)

    def _with_gamma(self, gamma):
        ss = spin_space(self.SIG)
        return SpinSpace(ss.sig, ss.rep, ss.frame, ss.eta, ss.iota, gamma)

    def test_canonical_gamma_passes(self):
        assert cli._alpha_is_gamma_conjugation(spin_space(self.SIG))

    def test_identity_gamma_fails(self):
        ss = self._with_gamma(ExactMatrix.identity(spin_space(self.SIG).dim))
        assert not cli._alpha_is_gamma_conjugation(ss)

    def test_gamma_wrong_only_on_e7_fails(self):
        # e1...e6 anticommutes with e1..e6 and commutes with e7, so it
        # conjugates like alpha on every blade of e1..e6 and not on e7
        ss = spin_space(self.SIG)
        e1_to_e6 = ss.include(CliffordElement.blade(self.SIG, 0b0111111))
        assert not cli._alpha_is_gamma_conjugation(self._with_gamma(e1_to_e6))


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
            (("verify", "--sig", "6,5"), "--sig"),
            (("verify", "--max-m", "11"), "--max-m"),
            (("verify", "--max-m", "-1"), "--max-m"),
            (("build", "--sig", "0,11", "--kind", "dirac"), "--sig"),
            (("examples", "exterior", "--m", "11"), "--m"),
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
        config.write_text(json.dumps({"max_m": 11}))
        code, _, err = run(capsys, "verify", "--config", str(config))
        assert code == 2
        assert "--max-m" in err

    def test_limits_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_verify_signature", lambda sig, seed: [])
        monkeypatch.setattr(cli, "_run_example", lambda name, m, samples, seed: [])
        assert run(capsys, "verify", "--sig", "10,0")[0] == 0
        assert run(capsys, "verify", "--max-m", "10")[0] == 0
        assert run(capsys, "examples", "exterior", "--m", "10", "--samples", "10000")[0] == 0


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
