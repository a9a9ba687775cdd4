"""The one report record every check returns, and JSON serialisation.

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


class Report:
    """One check verdict.  A plain ``__slots__`` class with the constructor,
    equality and repr a dataclass would generate, without importing
    ``dataclasses`` (and ``inspect``) when the CLI builds its parser."""

    __slots__ = ("check_name", "signature", "status", "witness", "counterexample")

    def __init__(self, check_name: str, signature: Optional[str], status: str,
                 witness: Optional[str] = None, counterexample: Optional[str] = None):
        self.check_name = check_name
        self.signature = signature
        self.status = status  # "pass" | "fail"
        self.witness = witness
        self.counterexample = counterexample

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):  # defining it leaves Report unhashable, as a dataclass is
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields())
        return f"Report({', '.join(f'{name}={value!r}' for name, value in pairs)})"

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        """All fields, but witness and counterexample only when set."""
        return {
            name: value for name, value in zip(self.__slots__, self._fields())
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
