"""The one-pass catalog reader against the two-pass reader it replaced.

``reference_from_json`` is the reader ``charclass`` used before ``manifold_from_json`` checked
each field where it converts it: a full check of the record's shape, keys and F2 vector lengths
(``_reference_check_record``), then the conversion, whose constructor errors are prefixed with
the record name.  Both readers see the builtin catalog and the tiny record of
``test_charclass``, each with seeded single faults: every ``_SHAPE`` key given a wrong JSON type,
every bit vector lengthened, shortened, or given a 2 or a ``true``, a bundle's name, rank or
orientedness broken, a cup key naming a non-h1 class, and one fault of each semantic rule.  On a
faulty record both must raise ValueError with the same text; on a sound one both must give equal
``ManifoldData``.  A record with several faults may report a different one of them first, so
on records merged from several faulty copies both need only reject alike.
"""

import copy
import random

import pytest

from spinweave.charclass import (
    BundleData,
    CohoClass,
    CohoRing,
    ManifoldData,
    _SHAPE,
    _bad,
    _vec,
    builtin_catalog,
    manifold_from_json,
    manifold_to_json,
)
from test_charclass import _record

_REFERENCE_REQUIRED = ("dim", "h1", "h2", "sq", "tangent")


def _reference_check_bits(value, length, name, key):
    if value is None:
        raise _bad(name, key, "is missing")
    if not isinstance(value, list) or any(type(b) is not int or b not in (0, 1) for b in value):
        raise _bad(name, key, "must be a list of 0/1 entries")
    if len(value) != length:
        raise _bad(name, key, f"has length {len(value)}, expected {length}")


def _reference_check_record(data):
    if not isinstance(data, dict):
        raise ValueError(f"malformed catalog record: expected a JSON object, got {type(data).__name__}")
    name = data.get("name")
    if not isinstance(name, str):
        raise ValueError("malformed catalog record: key 'name' must be a string")
    for key in _REFERENCE_REQUIRED:
        if key not in data:
            raise _bad(name, key, "is missing")
    for key, kind in _SHAPE.items():
        value = data.get(key, kind())
        if not isinstance(value, kind) or isinstance(value, bool):
            raise _bad(name, key, f"must be a JSON {'integer' if kind is int else kind.__name__}")
    h1, h2 = data["h1"], data["h2"]
    for key, names in (("h1", h1), ("h2", h2)):
        if not all(isinstance(x, str) for x in names) or len(set(names)) != len(names):
            raise _bad(name, key, "must list distinct basis names")
    b1, b2 = len(h1), len(h2)
    if data["dim"] < 1:
        raise _bad(name, "dim", "must be positive")
    if set(data["sq"]) != set(h1):
        raise _bad(name, "sq", "must have exactly one row per h1 class")
    for cls, row in data["sq"].items():
        _reference_check_bits(row, b2, name, f"sq.{cls}")
    for pair, row in data.get("cup", {}).items():
        parts = pair.split(",")
        if len(parts) != 2 or not all(x in h1 for x in parts):
            raise _bad(name, f"cup.{pair}", "must name two h1 classes")
        _reference_check_bits(row, b2, name, f"cup.{pair}")
    _reference_check_bits(data["tangent"].get("w1"), b1, name, "tangent.w1")
    _reference_check_bits(data["tangent"].get("w2"), b2, name, "tangent.w2")
    for i, gen in enumerate(data.get("liftable2", [])):
        _reference_check_bits(gen, b2, name, f"liftable2[{i}]")
    for i, bundle in enumerate(data.get("bundles", [])):
        key = f"bundles[{i}]"
        if not isinstance(bundle, dict):
            raise _bad(name, key, "must be a JSON object")
        if not isinstance(bundle.get("name"), str):
            raise _bad(name, f"{key}.name", "must be a string")
        rank = bundle.get("rank")
        if type(rank) is not int or rank < 1:
            raise _bad(name, f"{key}.rank", "must be a positive integer")
        _reference_check_bits(bundle.get("w1"), b1, name, f"{key}.w1")
        _reference_check_bits(bundle.get("w2"), b2, name, f"{key}.w2")
        if type(bundle.get("oriented", False)) is not bool:
            raise _bad(name, f"{key}.oriented", "must be true or false")


def reference_from_json(data):
    _reference_check_record(data)
    try:
        basis1 = tuple(data["h1"])
        basis2 = tuple(data["h2"])
        sq = tuple(_vec(data["sq"][name]) for name in basis1)
        cup = {}
        for key, value in data.get("cup", {}).items():
            n1, n2 = key.split(",")
            cup[(basis1.index(n1), basis1.index(n2))] = _vec(value)
        ring = CohoRing(basis1, basis2, sq, cup)
        tangent = BundleData("T", data["dim"], CohoClass(1, _vec(data["tangent"]["w1"])),
                             CohoClass(2, _vec(data["tangent"]["w2"])))
        bundles = tuple(
            BundleData(b["name"], b["rank"], CohoClass(1, _vec(b["w1"])),
                       CohoClass(2, _vec(b["w2"])), b.get("oriented", False))
            for b in data.get("bundles", [])
        )
        liftable = tuple(_vec(g) for g in data.get("liftable2", []))
    except ValueError as exc:
        raise ValueError(f"malformed catalog record {data['name']!r}: {exc}") from exc
    return ManifoldData(data["name"], data["dim"], ring, tangent, liftable, bundles)


def _outcome(reader, record):
    """The record a reader returns, or the text of the ValueError it raises; any other
    exception propagates and fails the test."""
    try:
        return reader(copy.deepcopy(record))
    except ValueError as exc:
        return f"ValueError: {exc}"


BASES = {"tiny": _record(), **{m.name: manifold_to_json(m) for m in builtin_catalog()}}

WRONG_TYPES = {int: ("3", 3.0, True, None, [3], {}), list: ("x", {}, 1, None, True),
               dict: ([], "x", 1, None, False)}


def _vector_paths(record):
    """(container, key, label) of every F2 vector of a record, labelled as the readers name it."""
    paths = [(record["sq"], cls, f"sq.{cls}") for cls in record["sq"]]
    paths += [(record["cup"], pair, f"cup.{pair}") for pair in record.get("cup", {})]
    paths += [(record["tangent"], w, f"tangent.{w}") for w in ("w1", "w2")]
    paths += [(record["liftable2"], i, f"liftable2[{i}]") for i in range(len(record["liftable2"]))]
    for i, bundle in enumerate(record.get("bundles", [])):
        paths += [(bundle, w, f"bundles[{i}].{w}") for w in ("w1", "w2")]
    return paths


def _faults(base, rng):
    """(description, faulty copy of base) for each seeded single fault."""
    def variant(change):
        record = copy.deepcopy(base)
        change(record)
        return record

    out = []
    for key, kind in _SHAPE.items():
        wrong = rng.choice(WRONG_TYPES[kind])
        out.append((f"{key} = {wrong!r}", variant(lambda r: r.__setitem__(key, wrong))))
    for i, (box, key, label) in enumerate(_vector_paths(base)):
        def edit(op):
            def change(record):
                box, key, _ = _vector_paths(record)[i]
                vec = box[key]
                at = rng.randrange(len(vec)) if vec else 0
                if op == "lengthen":
                    vec.insert(at, rng.randrange(2))
                elif op == "shorten":
                    del vec[at]
                else:
                    vec[at:at + 1] = [2 if op == "two" else True]
            return change
        ops = ("lengthen", "shorten", "two", "true") if box[key] else ("lengthen", "two", "true")
        out += [(f"{label} {op}", variant(edit(op))) for op in ops]
    for i in range(len(base.get("bundles", []))):
        broken = [("name", rng.choice((1, None, ["E"]))),
                  ("rank", rng.choice((0, -1, "2", 2.0, True))),
                  ("oriented", rng.choice(("yes", 1, None)))]
        for field, value in broken:
            out.append((f"bundles[{i}].{field} = {value!r}",
                        variant(lambda r: r["bundles"][i].__setitem__(field, value))))
        out.append((f"bundles[{i}].name missing", variant(lambda r: r["bundles"][i].pop("name"))))
    h1 = base["h1"]
    pair = rng.choice([f"{h1[0]},elsewhere", f"elsewhere,{h1[-1]}", h1[0], ",".join(h1 * 3)]
                      if h1 else ["p,q"])
    out.append((f"cup key {pair!r}",
                variant(lambda r: r.setdefault("cup", {}).__setitem__(pair, [0] * len(r["h2"])))))
    out += _semantic_faults(base, variant)
    return out


def _semantic_faults(base, variant):
    """One fault for each rule the record constructors hold, where the record allows it."""
    out = []
    h1, b2 = base["h1"], len(base["h2"])
    if h1 and b2:
        x = h1[0]
        flipped = [1 - b for b in base["sq"][x]]
        out.append(("cup(x,x) disagrees with sq(x)",
                    variant(lambda r: r.setdefault("cup", {}).__setitem__(f"{x},{x}", flipped))))
        out.append(("sq(x) not liftable",
                    variant(lambda r: (r["sq"].__setitem__(x, [1] * b2),
                                       r.__setitem__("liftable2", [])))))
    if len(h1) >= 2 and b2:
        pair, twin = f"{h1[0]},{h1[1]}", f"{h1[1]},{h1[0]}"

        def asymmetric(record):
            row = record.setdefault("cup", {}).setdefault(pair, [0] * b2)
            record["cup"][twin] = [1 - row[0]] + row[1:]
        out.append(("cup not symmetric", variant(asymmetric)))
    if h1:
        def oriented(record):
            record.setdefault("bundles", []).append(
                {"name": "F", "rank": 2, "w1": [1] * len(h1), "w2": [0] * b2, "oriented": True})
        out.append(("oriented bundle with w1 != 0", variant(oriented)))
    return out


@pytest.mark.parametrize("name", list(BASES))
def test_sound_records_read_equal(name):
    record = BASES[name]
    expected = reference_from_json(copy.deepcopy(record))
    assert manifold_from_json(copy.deepcopy(record)) == expected
    assert expected.name == name


@pytest.mark.parametrize("name", list(BASES))
def test_single_faults_raise_the_same_error(name):
    rng = random.Random(f"catalog-oracle-{name}")
    faults = _faults(BASES[name], rng)
    assert len(faults) >= len(_SHAPE) + 1
    for description, record in faults:
        old = _outcome(reference_from_json, record)
        assert isinstance(old, str), description
        assert _outcome(manifold_from_json, record) == old, description
        assert repr(name) in old, description


@pytest.mark.parametrize("seed", range(4))
def test_merged_faults_are_judged_alike(seed):
    """Top-level keys taken from several faulty copies of one record: both readers reject the
    result or both accept it, and what they accept is equal."""
    rng = random.Random(seed)
    for name in rng.sample(list(BASES), 8):
        faults = _faults(BASES[name], rng)
        record = copy.deepcopy(BASES[name])
        for _, faulty in rng.sample(faults, 3):
            for key in rng.sample(list(faulty), 2):
                record[key] = copy.deepcopy(faulty[key])
        old, new = _outcome(reference_from_json, record), _outcome(manifold_from_json, record)
        assert isinstance(old, str) == isinstance(new, str), (name, record)
        if not isinstance(old, str):
            assert new == old
