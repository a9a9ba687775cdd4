import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweave.clifford import Signature
from spinweave.linalg import ExactMatrix
from spinweave.reports import (
    Report,
    envelope,
    render_table,
    report,
    serialize_representation,
    serialize_spin_space,
    to_json_text,
)
from spinweave.reps import DIRAC, build_rep, spin_space

# frozen golden form of the Dirac representation of Cl(2,0)
GOLDEN_DIRAC_2_0 = {
    "schema": 1,
    "kind": "dirac",
    "signature": [2, 0],
    "dim": 2,
    "images": [
        [
            [["0", "0", "0", "0"], ["1", "0", "0", "0"]],
            [["1", "0", "0", "0"], ["0", "0", "0", "0"]],
        ],
        [
            [["1", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["-1", "0", "0", "0"]],
        ],
    ],
}


def test_representation_golden():
    doc = serialize_representation(build_rep(Signature(2, 0), DIRAC))
    assert doc == GOLDEN_DIRAC_2_0


def test_representation_images_roundtrip():
    rep = build_rep(Signature(3, 0), "cartan")
    doc = serialize_representation(rep)
    rebuilt = [ExactMatrix.from_json(g) for g in doc["images"]]
    assert tuple(rebuilt) == rep.images


def test_spin_space_serialisation():
    ss = spin_space(Signature(3, 0))
    doc = serialize_spin_space(ss)
    assert doc["schema"] == 1
    assert doc["dim"] == 4
    assert ExactMatrix.from_json(doc["gamma"]) == ss.gamma
    assert ExactMatrix.from_json(doc["eta"]) == ss.eta


def test_report_shape():
    r = report("some-check", Signature(2, 0), True, witness="I")
    data = r.to_json()
    assert data == {
        "check_name": "some-check",
        "signature": "Cl(2,0)",
        "status": "pass",
        "witness": "I",
    }
    assert "counterexample" not in data


def test_envelope_deterministic():
    reports = [report("a", None, True), report("b", None, False, counterexample="x")]
    text1 = to_json_text(envelope(reports))
    text2 = to_json_text(envelope(reports))
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["schema"] == 1
    assert doc["reports"][1]["counterexample"] == "x"


def test_render_table():
    text = render_table([{"name": "s3", "spin": True, "w": None}])
    assert "s3" in text and "T" in text and "-" in text
    assert render_table([]) == "(empty)\n"


def test_report_behaves_as_its_dataclass_did():
    full = Report("c", "Cl(1,0)", "fail", "w", "x")
    assert full == Report(check_name="c", signature="Cl(1,0)", status="fail",
                          witness="w", counterexample="x")
    assert full != Report("c", "Cl(1,0)", "fail", "w")
    assert (full == ("c", "Cl(1,0)", "fail", "w", "x")) is False
    assert repr(Report("c", None, "pass")) == (
        "Report(check_name='c', signature=None, status='pass', witness=None, "
        "counterexample=None)"
    )
    assert list(full.to_json()) == ["check_name", "signature", "status", "witness",
                                    "counterexample"]
    assert Report("c", None, "pass").to_json() == {
        "check_name": "c", "signature": None, "status": "pass"}
    assert not full.ok and Report("c", None, "pass").ok
    assert Report.__hash__ is None
    assert not hasattr(full, "__dict__")


# -- the JSON writer against json.dumps(doc, indent=2) -------------------------------

_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),  # escapes and control characters
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, max_codepoint=0xFFFF, blacklist_categories=("Cs",)),
    st.characters(min_codepoint=0x10000),  # astral, written as surrogate pairs
), max_size=12)
_ATOMS = st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
                   st.integers(-10 ** 30, 10 ** 30), _TEXT)
_KEYS = st.one_of(_TEXT, st.none(), st.booleans(), st.integers(-3, 3))
_DOCS = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=20)


@settings(max_examples=300)
@given(_DOCS)
def test_writer_matches_json_dumps(doc):
    assert to_json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}, "b": []}, [[], {}, [[]]],
    {True: 1, 1: True, False: 0, 0: False, None: None},
    ["\"\\", "\x00\x1f\x7f", "é", "\U0001F600", ""],
])
def test_writer_matches_json_dumps_on_edge_cases(doc):
    assert to_json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [1.5, (1, 2), {"a": {1, 2}}, {(1, 2): 0}, {1.5: 0}, b"x"])
def test_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        to_json_text(doc)
