"""Every name that the package, the tests and the scripts import is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """Names bound by the import statements of source that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom sys import argv, exit\nexit(osp)\n"
    assert unused_imports(source) == ["argv", "os"]


def test_no_module_imports_a_name_it_never_uses():
    files = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
    assert files
    unused = {
        str(path.relative_to(ROOT)): names
        for path in files
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
