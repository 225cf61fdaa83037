import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _readme_example() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


SOURCES = {p.name: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))}
SOURCES["README library example"] = _readme_example()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_gatgmm_imports_resolve(name):
    """Every ``from gatgmm[.module] import X`` in the demos and the README
    example names something the package has; the scripts are parsed, not run."""
    imports = [node for node in ast.walk(ast.parse(SOURCES[name]))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "gatgmm"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{name}: {node.module} has no {missing}"


MODULES = sorted("gatgmm" if p.stem == "__init__" else f"gatgmm.{p.stem}"
                 for p in (ROOT / "src" / "gatgmm").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    """Every name a module lists in ``__all__`` exists, so that
    ``from <module> import *`` works."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists {missing}"
