"""One memo mechanism: a view an object derives from its own inputs is a
functools.cached_property of that object, so no bracelab module binds
attributes in ``__getattr__``, fills a sentinel field from a ``@property``,
or writes a cache onto another object's private attribute."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bracelab"


def _targets(node: ast.AST) -> list[ast.expr]:
    """The assigned expressions of an assignment, with tuple targets unpacked."""
    if isinstance(node, ast.Assign):
        found = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        found = [node.target]
    else:
        return []
    out = []
    while found:
        t = found.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            found.extend(t.elts)
        else:
            out.append(t)
    return out


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _is_property(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)


def _memo_offences(path: Path) -> list[str]:
    """'file:line: what' for each hand-rolled memo in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            out.append(f"{path.name}:{node.lineno}: __getattr__")
        if isinstance(node, ast.FunctionDef) and _is_property(node):
            for inner in ast.walk(node):
                for t in _targets(inner):
                    if isinstance(t, ast.Attribute) and _is_self(t.value):
                        out.append(f"{path.name}:{inner.lineno}: @property {node.name} assigns self.{t.attr}")
        for t in _targets(node):
            if not isinstance(t, ast.Attribute) or _is_self(t.value):
                continue
            if t.attr.startswith("_") and not t.attr.endswith("__"):
                out.append(f"{path.name}:{node.lineno}: assigns {ast.unparse(t)}")
    return sorted(out)


def test_derived_views_are_cached_properties():
    found = [o for path in sorted(SRC.glob("*.py")) for o in _memo_offences(path)]
    assert found == []


def test_the_scan_finds_each_kind_of_offence(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class A:\n"
        "    def __getattr__(self, attr):\n"
        "        return 0\n"
        "    @property\n"
        "    def view(self):\n"
        "        if self._view is None:\n"
        "            self._view, other = 1, 2\n"
        "        return self._view\n"
        "    def ok(self, err):\n"
        "        self._x = err.__cause__ = 1\n"
        "def write(group):\n"
        "    group._memo = 1\n",
        encoding="utf-8",
    )
    assert _memo_offences(path) == [
        "sample.py:12: assigns group._memo",
        "sample.py:2: __getattr__",
        "sample.py:7: @property view assigns self._view",
    ]
