"""The library's public surface, by a caller census.

Every public module-level function and class of ``src/logsymplectic`` must
have a caller in the library, or be listed, with its reason, in README's
section "Public API kept without a library caller".  A listed name that
gains a caller or no longer exists fails the census too, so the list stays
the record of what is kept without a caller.

The census reads the source with ``ast`` and imports nothing from the
package, so a broken import cannot hide its verdict.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logsymplectic"
SECTION = "## Public API kept without a library caller"
ENTRY = re.compile(r"^- `(\w+\.\w+)`: (\S.*)$")


def _modules(directory: Path) -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(directory.glob("*.py"))
        if path.name != "__init__.py"
    }


def _defines(stmt) -> str | None:
    """The public name a top-level ``def`` or ``class`` defines, if any."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        if not stmt.name.startswith("_"):
            return stmt.name
    return None


def _loads(mod: str, tree: ast.Module, local: set[str]):
    """Per top-level statement of ``mod``, the qualified names it loads: bare
    names defined in ``mod``, names bound by ``from .other import name``, and
    ``other.name`` after ``from . import other``."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    modules[bound] = alias.name
                else:
                    names[bound] = f"{node.module}.{alias.name}"
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in local:
                    found.add(f"{mod}.{node.id}")
                elif node.id in names:
                    found.add(names[node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    found.add(f"{modules[node.value.id]}.{node.attr}")
        yield stmt, found


def census(directory: Path, listed: set[str]) -> list[str]:
    """The census of the package in ``directory`` against the ``listed``
    names (``module.name``): one line per public name without a library
    caller that is not listed, and per listed name that has a caller or is
    not defined.  Empty when the list is exact."""
    modules = _modules(directory)
    public = {}
    for mod, tree in modules.items():
        for stmt in tree.body:
            if name := _defines(stmt):
                public[f"{mod}.{name}"] = mod
    called = set()
    for mod, tree in modules.items():
        local = {q.split(".", 1)[1] for q, m in public.items() if m == mod}
        for stmt, found in _loads(mod, tree, local):
            called |= found - {f"{mod}.{_defines(stmt)}"}
    problems = []
    for name in sorted(public.keys() - called - listed):
        problems.append(f"{name} has no library caller and is not listed")
    for name in sorted(listed & called):
        problems.append(f"{name} is listed but has a library caller")
    for name in sorted(listed - public.keys()):
        problems.append(f"{name} is listed but not defined")
    return problems


def listed_names(readme: str) -> set[str]:
    """The names of README's section, one ``- `module.name`: reason`` line
    each; AssertionError on any other line, or a name listed twice."""
    _, found, rest = readme.partition(f"\n{SECTION}\n")
    assert found, f"README has no section {SECTION!r}"
    names = []
    for line in rest.split("\n## ", 1)[0].splitlines():
        if line.startswith("- "):
            match = ENTRY.match(line)
            assert match, f"not one name and one reason: {line!r}"
            names.append(match[1])
    assert len(names) == len(set(names)), "a name is listed twice"
    return set(names)


def test_library_surface():
    listed = listed_names((ROOT / "README.md").read_text())
    assert census(PACKAGE, listed) == []


def write_package(directory: Path, **sources: str) -> Path:
    directory.mkdir()
    (directory / "__init__.py").write_text("from .a import lonely\n")
    for mod, text in sources.items():
        (directory / f"{mod}.py").write_text(text)
    return directory


SYNTHETIC = {
    "a": (
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def lonely():\n    return lonely()\n\n"
        "def by_module():\n    return 2\n\n"
        "def _private():\n    return 3\n\n"
        "class Box:\n    def method(self):\n        return 4\n"
    ),
    "b": "from .a import used as call_used\n\nVALUE = call_used()\n",
    "c": "from . import a\n\nOTHER = a.by_module()\n\ndef make() -> 'a.Box':\n    return a.Box()\n",
}


class TestCensus:
    """The census on a small package: its verdicts on unlisted, listed,
    called and missing names."""

    def test_exact_list_passes(self, tmp_path):
        package = write_package(tmp_path / "pkg", **SYNTHETIC)
        assert census(package, {"a.lonely", "c.make"}) == []

    def test_unlisted_caller_less_name_reported(self, tmp_path):
        # a re-export in __init__ and a call from its own body are not callers
        package = write_package(tmp_path / "pkg", **SYNTHETIC)
        assert census(package, {"c.make"}) == ["a.lonely has no library caller and is not listed"]

    def test_listed_name_that_gained_a_caller_reported(self, tmp_path):
        package = write_package(tmp_path / "pkg", **SYNTHETIC)
        listed = {"a.lonely", "c.make", "a.used", "a.helper", "a.by_module"}
        assert census(package, listed) == [
            "a.by_module is listed but has a library caller",
            "a.helper is listed but has a library caller",
            "a.used is listed but has a library caller",
        ]

    def test_listed_name_that_is_gone_reported(self, tmp_path):
        package = write_package(tmp_path / "pkg", **SYNTHETIC)
        listed = {"a.lonely", "c.make", "a._private", "a.method", "d.gone"}
        assert census(package, listed) == [
            "a._private is listed but not defined",
            "a.method is listed but not defined",
            "d.gone is listed but not defined",
        ]

    def test_readme_section(self):
        text = f"# T\n\n{SECTION}\n\n- `a.f`: kept.\n- `b.g`: kept.\n\n## Next\n\n- `c.h`: not here.\n"
        assert listed_names(text) == {"a.f", "b.g"}

    @pytest.mark.parametrize("entries", ["- `a.f`:\n", "- a.f: kept\n", "- `a.f`: kept.\n- `a.f`: again.\n"])
    def test_malformed_entries_refused(self, entries):
        with pytest.raises(AssertionError):
            listed_names(f"# T\n\n{SECTION}\n\n{entries}")

    def test_missing_section_refused(self):
        with pytest.raises(AssertionError):
            listed_names("# T\n\n## Public API\n\n- `a.f`: kept.\n")
