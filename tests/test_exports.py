"""Every name the package exports is reached from outside its own definition.

A name counts as reached when it appears, as a whole word, in another
package module, a demo, the acceptance tests or the README.  The line
that defines it (``def name`` or ``class name``) does not count, so a
wrapper that only the export list mentions fails here.
"""

import ast
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
