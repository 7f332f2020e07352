"""The package defines only what its commands, demos, benchmark and tools
use."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "offgridopt"
EXEMPT = {
    # README.md documents these two as the library's config round trip; no
    # command needs them, since every run writes its resolved config into
    # result.json.
    "load_config", "save_config",
    # The reference forms of the feed-in: tests/test_devices.py and
    # tests/test_simulate.py compare ``renewable_feed_in`` against them.
    "pv_power", "wt_power",
}


def used_names(tree: ast.AST) -> Counter:
    """Names that code uses: loaded or stored names, attributes and
    imported names; text in strings and docstrings does not count."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2] for alias in node.names)
    return used


def test_every_module_level_definition_is_named_elsewhere():
    """A function or class that no code names (other than a re-export in
    ``__init__.py`` or a test) is dead code."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users = modules + [p for d in ("demos", "perfbench", "tools")
                       for p in sorted((ROOT / d).rglob("*.py"))]
    used = Counter()
    for path in users:
        used += used_names(ast.parse(path.read_text(encoding="utf-8")))
    defined = {
        node.name
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    assert sorted(name for name in defined
                  if name not in EXEMPT and not used[name]) == []
