"""Only ybe.py samples: the braid scan is the one check drawn from a seeded
sample, so no other bracelab module imports random or names the scan's
limits."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bracelab"
SAMPLER_MODULES = {"random"}
SAMPLER_NAMES = {"EXHAUSTIVE_LIMIT"}


def _sampling_uses(path: Path) -> set[str]:
    """Imports of the sampler modules and mentions of the sampler names in one file."""
    uses = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            uses |= {f"import {a.name}" for a in node.names if a.name.split(".")[0] in SAMPLER_MODULES}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] in SAMPLER_MODULES:
                uses.add(f"from {node.module} import")
            uses |= {a.name for a in node.names if a.name in SAMPLER_NAMES}
        elif isinstance(node, ast.Name) and node.id in SAMPLER_NAMES:
            uses.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in SAMPLER_NAMES:
            uses.add(node.attr)
    return uses


def test_only_ybe_samples():
    found = {path.name: sorted(uses) for path in sorted(SRC.glob("*.py")) if (uses := _sampling_uses(path))}
    assert found == {"ybe.py": sorted({"import random", *SAMPLER_NAMES})}
