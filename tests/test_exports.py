"""The package exports what the README's Python API section names, and every export is read by a test."""

import ast
import re
from inspect import ismodule
from pathlib import Path

import nvgates

ROOT = Path(__file__).resolve().parent.parent
EXPORTS = sorted(name for name, value in vars(nvgates).items() if not name.startswith("_") and not ismodule(value))


def test_readme_api_section_names_every_export():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    _, found, rest = readme.partition("\n## Python API\n")
    assert found, "README.md has no Python API section"
    section = rest.split("\n## ", 1)[0]
    assert [name for name in EXPORTS if not re.search(rf"`{name}\b", section)] == []


def test_every_export_is_read_by_a_test():
    read = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert [name for name in EXPORTS if name not in read] == []
