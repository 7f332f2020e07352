"""The package defines only what its commands, demos, benchmark and tools
use, and its compiled library exports only the kernels the package calls,
each with an oracle that the tests can put in its place."""

import ast
import re
from collections import Counter
from pathlib import Path

from reference import use_the_oracles

from offgridopt import kernels

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "offgridopt"
EXEMPT = {
    # README.md documents these two as the library's config round trip; no
    # command needs them, since every run writes its resolved config into
    # result.json.
    "load_config", "save_config",
    # The day kernel's SOC step in Python: perfbench/run.py binds it by name
    # (a string, which does not count here), and the day kernel's oracle in
    # tests/reference.py takes its SOC knots from it.
    "propagate_soc",
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


def called_names(tree: ast.AST) -> set:
    """Names that code calls, as ``f(...)`` or ``obj.f(...)``."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def exported_kernels() -> set:
    """A function of ``_cascade.c`` that is not ``static`` is a kernel the
    library exports."""
    source = (PACKAGE / "_cascade.c").read_text(encoding="utf-8")
    # a definition starts at the line's first column with its return type
    return set(re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(",
                          source, re.MULTILINE))


def test_every_exported_kernel_is_called_by_the_package():
    """Each exported kernel must be called by the package's own code, not
    only by the tests: setting its signature or binding it to a name is not
    a call."""
    exported = exported_kernels()
    called = set()
    for path in PACKAGE.glob("*.py"):
        called |= called_names(ast.parse(path.read_text(encoding="utf-8")))
    assert exported == {"cascade", "price", "day_prices", "day_hours",
                        "day_score", "day_refine"}
    assert sorted(exported - called) == []


def test_every_kernel_has_its_oracle_in_the_fallback_runs(monkeypatch):
    """``use_the_oracles`` puts an oracle of ``tests/reference.py`` in the
    place of every kernel the library exports, in the binding the package
    calls it through (``kernels.run`` for ``cascade``, the kernel's name
    for the others): a kernel cannot ship without an oracle."""
    bindings = {kernel: "run" if kernel == "cascade" else kernel
                for kernel in exported_kernels()}
    compiled = {kernel: getattr(kernels, name)
                for kernel, name in bindings.items()}
    use_the_oracles(monkeypatch)
    for kernel, name in bindings.items():
        oracle = getattr(kernels, name)
        assert oracle is not compiled[kernel], kernel
        assert oracle.__module__ == "reference", kernel
