"""The record base, the one report record every check returns, and JSON
serialisation.

Every check function in reps, groups and bundles returns a ``Report`` (or
a list of them); the CLI prints those records as they are, and the tests
assert on the same records.  Output documents carry a top-level
``schema: 1`` marker; report entries are {check_name, signature, status,
witness?, counterexample?}.  All serialisation is deterministic: same
inputs, byte-identical output.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:
    from .reps import Representation, SpinSpace

SCHEMA = 1

# Representation kinds, as ``build --kind`` takes them and reports name
# them.  They live here, not in reps, so the CLI parser offers them without
# loading any algebra layer; reps re-exports them.
PAULI = "pauli"
PAULI_TWISTED = "pauli_twisted"
DIRAC = "dirac"
CARTAN = "cartan"
WEYL_PLUS = "weyl+"
WEYL_MINUS = "weyl-"

KINDS = (PAULI, PAULI_TWISTED, DIRAC, CARTAN, WEYL_PLUS, WEYL_MINUS)


class Record:
    """Base of every record class in the package, in place of ``@dataclass``.

    A subclass names its fields in ``__slots__`` and writes its own
    ``__init__``, validation included.  Slots whose names start with ``_``
    are caches, which repr and equality leave out.  ``_key`` is the tuple of
    the other slots, the fields; the base supplies from it what
    ``dataclass`` would generate:

    * ``frozen=True`` (default): ``__init__`` sets the fields with
      ``_assign``, which keeps their tuple as ``_key``.  Equality and hash
      are those of ``_key``, an object equals itself without comparing it,
      and assignment raises ``AttributeError``.
    * ``frozen=False``: assignment allowed, ``_key`` read from the fields
      on each use and, as for a mutable dataclass, no hash.
    * ``eq=False``: equality and hash are those of ``object`` (identity),
      unless the class defines its own.

    Importing ``dataclasses`` (which loads ``inspect``, ``ast``, ``dis`` and
    ``tokenize``) and generating the classes cost each CLI process that
    loads a layer about 10 ms of wall time.
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls, frozen: bool = True, eq: bool = True):
        fields = cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        defaults = {}
        if not frozen:
            defaults.update(__setattr__=object.__setattr__, __delattr__=object.__delattr__,
                            _key=property(lambda self: tuple(getattr(self, n) for n in fields)))
        if not eq:
            defaults.update(__eq__=object.__eq__, __hash__=object.__hash__)
        elif not frozen:
            defaults["__hash__"] = None
        for name, value in defaults.items():
            if name not in vars(cls):
                setattr(cls, name, value)

    def _assign(self, *values) -> None:
        """Set the fields of a frozen record, in slot order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._key)
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Report(Record, frozen=False):
    """One check verdict."""

    __slots__ = ("check_name", "signature", "status", "witness", "counterexample")

    def __init__(self, check_name: str, signature: Optional[str], status: str,
                 witness: Optional[str] = None, counterexample: Optional[str] = None):
        self.check_name = check_name
        self.signature = signature
        self.status = status  # "pass" | "fail"
        self.witness = witness
        self.counterexample = counterexample

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        """All fields, but witness and counterexample only when set."""
        return {
            name: value for name, value in zip(self._fields, self._key)
            if value is not None or name == "signature"
        }


def report(check_name: str, signature, ok: bool, witness=None, counterexample=None) -> Report:
    return Report(
        check_name,
        str(signature) if signature is not None else None,
        "pass" if ok else "fail",
        witness,
        counterexample,
    )


def envelope(reports: List[Report]) -> dict:
    return {"schema": SCHEMA, "reports": [r.to_json() for r in reports]}


def to_json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=False)


def serialize_representation(rep: Representation) -> dict:
    return {
        "schema": SCHEMA,
        "kind": rep.kind,
        "signature": [rep.sig.k, rep.sig.l],
        "dim": rep.dim,
        "images": [g.to_json() for g in rep.images],
    }


def serialize_spin_space(ss: SpinSpace) -> dict:
    return {
        "schema": SCHEMA,
        "signature": [ss.sig.k, ss.sig.l],
        "dim": ss.dim,
        "frame": [g.to_json() for g in ss.frame],
        "eta": ss.eta.to_json(),
        "iota": ss.iota.to_json(),
        "gamma": ss.gamma.to_json(),
    }


def render_table(rows: List[dict]) -> str:
    """Plain fixed-width table for terminal output."""
    if not rows:
        return "(empty)\n"
    headers = list(rows[0].keys())
    cells = [[_cell(row.get(h)) for h in headers] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "T"
    if value is False:
        return "F"
    return str(value)
