"""The package defines only what its commands, demos, benchmark and tools
use."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "offgridopt"
# README.md documents these two as the library's config round trip; no
# command needs them, since every run writes its resolved config into
# result.json.
EXEMPT = {"load_config", "save_config"}


def test_every_module_level_definition_is_named_elsewhere():
    """A function or class named only by its own definition (and perhaps a
    re-export in ``__init__.py`` or a test) is dead code."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users = modules + [p for d in ("demos", "perfbench", "tools")
                       for p in sorted((ROOT / d).rglob("*.py"))]
    text = "\n".join(p.read_text(encoding="utf-8") for p in users)
    defined = Counter(
        node.name
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    unused = sorted(name for name, n in defined.items()
                    if name not in EXEMPT
                    and len(re.findall(rf"\b{name}\b", text)) <= n)
    assert unused == []
