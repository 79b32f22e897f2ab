"""The package namespace: each public name exported once, no tuning knob
left on the public functions, and no private function that the package
itself never uses."""

import ast
import inspect
from pathlib import Path

import pytest

import bscbounds


def test_every_export_is_listed_once_and_resolves():
    names = bscbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bscbounds, name), name


@pytest.mark.parametrize("knob", ["cap", "tol", "per_component"])
def test_no_public_function_takes_a_tuning_knob(knob):
    funcs = [(name, obj) for name in bscbounds.__all__
             if inspect.isfunction(obj := getattr(bscbounds, name))]
    assert funcs
    assert [name for name, fn in funcs if knob in inspect.signature(fn).parameters] == []


def test_every_private_function_is_used_in_the_package():
    # a use is a Name or Attribute node outside the function's own body, so
    # neither a docstring's mention nor a test's call keeps a function alive
    users = {}
    private = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "bscbounds").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.stem, getattr(node, "name", None))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                private.append(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    users.setdefault(sub.attr, set()).add(owner)
    assert private
    assert [f"{m}.{f}" for m, f in private if not users.get(f, set()) - {(m, f)}] == []
