"""Every name the benchmark tracer patches resolves in invsys.

perfbench/spans.py wraps the functions named in FUNCTIONS and the class
attributes named in METHODS and COUNTED when a traced run starts, and a
name that no longer resolves breaks only that run.  The tables are read
from the source as literals, so nothing under perfbench/ is imported or
written.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
TABLES = ("FUNCTIONS", "METHODS", "COUNTED")


def _tables():
    """name -> literal value of each table assigned at the top of spans.py."""
    out = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in TABLES:
                    out[target.id] = ast.literal_eval(node.value)
    return out


def test_spans_defines_every_table():
    tables = _tables()
    assert sorted(tables) == sorted(TABLES)
    assert all(tables[name] for name in TABLES)


@pytest.mark.parametrize("module, attr", _tables()["FUNCTIONS"])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"invsys.{module}"), attr))


@pytest.mark.parametrize("module, cls, attr, name", _tables()["METHODS"] + _tables()["COUNTED"])
def test_traced_method_resolves(module, cls, attr, name):
    # the tracer wraps the attribute the class itself defines
    owner = getattr(importlib.import_module(f"invsys.{module}"), cls)
    assert callable(vars(owner)[attr])
    assert name.startswith(f"{module}.{cls}")
