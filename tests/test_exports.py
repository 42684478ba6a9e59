"""Every name the package exports is reached from outside its own definition.

A name counts as reached when it appears, as a whole word, in another
package module, a demo, the acceptance tests or the README.  The line
that defines it (``def name`` or ``class name``) does not count, so a
wrapper that only the export list mentions fails here.

Every layer function that the benchmark's tracer wraps exists, read
from its ``TARGETS`` list without running the tracer.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "occuthresh"


def exported_names(init_source: str) -> list[str]:
    tree = ast.parse(init_source)
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def reaching_text(root: Path) -> str:
    package = root / "src" / "occuthresh"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "demos").glob("*.py"))
    paths += [root / "tests" / "test_acceptance.py", root / "README.md"]
    return "\n".join(p.read_text() for p in paths)


def unreached(names, text: str) -> list[str]:
    out = []
    for name in names:
        word = re.escape(name)
        uses = re.sub(rf"^[ \t]*(?:def|class)[ \t]+{word}\b.*$", "", text, flags=re.MULTILINE)
        if not re.search(rf"\b{word}\b", uses):
            out.append(name)
    return out


def test_every_export_is_reached():
    names = exported_names((PACKAGE / "__init__.py").read_text())
    assert len(names) > 50
    assert unreached(names, reaching_text(ROOT)) == []


def test_definition_line_alone_does_not_count():
    text = "def lonely(x):\n    return x\n\nclass Used:\n    pass\n\nUsed()\n"
    assert unreached(["lonely", "Used"], text) == ["lonely"]
    assert unreached(["lonely_rows"], "lonely(1)\n") == ["lonely_rows"]


def tracer_targets(source: str) -> list[tuple[str, str]]:
    """The (module, function) pairs of a ``TARGETS = [...]`` assignment, parsed, not executed."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("no TARGETS list")


def missing_targets(targets) -> list[str]:
    out = []
    for module, name in targets:
        try:
            found = hasattr(importlib.import_module(f"occuthresh.{module}"), name)
        except ModuleNotFoundError:
            found = False
        if not found:
            out.append(f"occuthresh.{module}.{name}")
    return out


def test_every_tracer_target_exists():
    targets = tracer_targets((ROOT / "perfbench" / "tracing.py").read_text())
    assert ("sdpi", "occupation_contraction") in targets
    assert missing_targets(targets) == []


def test_renamed_tracer_target_is_missing():
    targets = tracer_targets('TARGETS = [("sdpi", "contraction_coefficient"), ("sdpi", "gone"), ("nowhere", "x")]\n')
    assert missing_targets(targets) == ["occuthresh.sdpi.gone", "occuthresh.nowhere.x"]
