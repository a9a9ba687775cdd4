"""Every public name in ``src/spinweave`` has a stated user.

A top-level ``def`` or ``class``, or a method, whose name has no leading ``_`` must pass one of
three tests: its name occurs as a word in ``src/spinweave`` outside the line that defines it, it is
exported by ``spinweave.__all__``, or README's "Library" list names it with its user.  Every name
on that list must also be defined in ``src/spinweave``.
"""

import ast
import re
from pathlib import Path

import spinweave

SRC = Path(spinweave.__file__).resolve().parent
README = SRC.parent.parent / "README.md"


def _public_defs():
    """(qualified name, file, line) of every public top-level def or class and every public
    method."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                          if isinstance(sub, ast.FunctionDef)]
            out += [(name, path, item.lineno) for name, item in found
                    if not name.rsplit(".", 1)[-1].startswith("_")]
    return out


def _library_list():
    """The names of README's "Library" list: one "- `name`: user" line each."""
    parts = README.read_text().split("\n## Library\n", 1)
    section = parts[1].split("\n## ", 1)[0] if len(parts) == 2 else ""
    return re.findall(r"^- `([\w.]+)`", section, re.MULTILINE)


def _used_in_src(name, path, line):
    word = re.compile(rf"\b{re.escape(name.rsplit('.', 1)[-1])}\b")
    for other in sorted(SRC.glob("*.py")):
        for number, text in enumerate(other.read_text().splitlines(), 1):
            if word.search(text) and (other, number) != (path, line):
                return True
    return False


def test_every_public_name_has_a_user():
    listed = set(_library_list())
    orphans = [name for name, path, line in _public_defs()
               if name not in spinweave.__all__ and name not in listed
               and not _used_in_src(name, path, line)]
    assert orphans == [], "public names with no user in src/, __all__ or README: " + ", ".join(
        orphans)


def test_library_list_names_only_defined_names():
    listed = _library_list()
    assert listed, "README has no Library list"
    defined = {name for name, _, _ in _public_defs()}
    assert [name for name in listed if name not in defined] == []
    assert len(set(listed)) == len(listed)
