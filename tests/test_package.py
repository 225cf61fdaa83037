import ast
import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gatgmm import errors

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


def test_import_loads_no_scipy():
    """``import gatgmm, gatgmm.cli`` in a fresh interpreter loads numpy and
    the standard library only: scipy is imported by the calls that use it."""
    code = ("import sys, gatgmm, gatgmm.cli; "
            "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


# constructor arguments of the errors that take fields; the others take a message
_ERROR_ARGS = {"Diverged": (3, "gen_step"), "NotStronglyConcave": (-1.0,),
               "ParseError": ("bad row", 4)}


@pytest.mark.parametrize("name", sorted(c.__name__ for c in errors.GatgmmError.__subclasses__()))
def test_error_pickles_with_its_fields(name):
    """Every error survives pickling, as across a process pool, with its
    type, message and fields."""
    cls = getattr(errors, name)
    err = cls(*_ERROR_ARGS.get(name, ("a message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == str(err) and vars(back) == vars(err)
