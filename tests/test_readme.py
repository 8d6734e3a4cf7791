"""The README's library quick start runs as written, and the names it cites exist."""

import contextlib
import importlib
import io
import operator
import pkgutil
import re
from pathlib import Path

import setflow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], f"{README}:quick start", "exec"), {"__name__": "readme"})
    assert out.getvalue()


def test_backticked_module_names_resolve():
    # `module.name` with module setflow or one of its modules names something on it;
    # `module.py` is a file name
    modules = {m.name: importlib.import_module(f"setflow.{m.name}")
               for m in pkgutil.iter_modules(setflow.__path__)}
    modules["setflow"] = setflow
    cited = [(m, name) for m, name in re.findall(r"`(\w+)\.([\w.]+)`", README.read_text())
             if m in modules and name != "py"]
    assert len(cited) >= 7
    missing = []
    for m, name in cited:
        try:
            operator.attrgetter(name)(modules[m])
        except AttributeError:
            missing.append(f"{m}.{name}")
    assert missing == []
